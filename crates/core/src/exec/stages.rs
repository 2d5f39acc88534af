//! The stage implementations: each stage function consumes typed inputs
//! from the [`QueryCtx`] blackboard and leaves typed outputs for the next
//! op.
//! Resilience guards live *inside* the stages (each stage knows its own
//! validator and fallback), while telemetry stays in the middleware — a
//! stage never touches the span trace except to append degrade events.

use super::ctx::{QueryCtx, RoundAnswer};
use super::middleware::push_event;
use super::plan::{RerankMode, SelectMode, StageOp};
use super::Flow;
use crate::pipeline::RagSystem;
use sage_eval::Cost;
use sage_llm::Answer;
use sage_rerank::{gradient_select, RankedChunk, SelectionConfig};
use sage_resilience::{Component, DegradeTrace, Failure, Fallback};
use sage_retrieval::{Retriever, ScoredChunk};
use std::time::Duration;

/// Run the stage `op` names — the executor's stage table. `op` carries
/// the (possibly brownout-rewritten) mode for stages with variants; all
/// state flows through the context.
pub(crate) fn run(sys: &RagSystem, ctx: &mut QueryCtx<'_>, op: StageOp) -> Flow {
    match op {
        StageOp::Embed => embed(sys, ctx),
        StageOp::RetrieveDense => retrieve_dense(sys, ctx),
        StageOp::RetrieveBm25 { .. } => retrieve_bm25(sys, ctx, op),
        StageOp::Rerank(_) => rerank(sys, ctx, op),
        StageOp::Select(_) => select(sys, ctx, op),
        StageOp::Read => read(sys, ctx),
        StageOp::Feedback => feedback(sys, ctx),
        StageOp::Fuse => fuse(ctx),
    }
}

fn embed(sys: &RagSystem, ctx: &mut QueryCtx<'_>) -> Flow {
    let embedded = ctx.guards.run(
        Component::Embedder,
        ctx.question,
        // None embeds as the empty vector, which the validator below
        // rejects, so the guard degrades DenseToBm25 instead of panicking
        // inside the guarded closure.
        || sys.retriever.embed_query(ctx.question).unwrap_or_default(),
        |v| {
            for x in v.iter_mut() {
                *x = f32::NAN;
            }
        },
        |v| !v.is_empty() && v.iter().all(|x| x.is_finite()),
    );
    match embedded {
        Ok(v) => {
            ctx.query_vec = Some(v);
            Flow::Continue
        }
        Err(failure) => {
            push_event(&mut ctx.trace, Component::Embedder, Fallback::DenseToBm25, failure);
            Flow::FallbackToBm25
        }
    }
}

fn finite_scores(hits: &[ScoredChunk]) -> bool {
    hits.iter().all(|h| h.score.is_finite())
}

fn poison_scores(hits: &mut Vec<ScoredChunk>) {
    for h in hits.iter_mut() {
        h.score = f32::NAN;
    }
    if hits.is_empty() {
        hits.push(ScoredChunk { index: 0, score: f32::NAN });
    }
}

fn retrieve_dense(sys: &RagSystem, ctx: &mut QueryCtx<'_>) -> Flow {
    let n = sys.config.candidates;
    let question = ctx.question;
    let exact = ctx.guards.run(
        Component::IndexSearch,
        question,
        // A missing query vector or dense index becomes a single NaN-scored
        // sentinel hit, which the validator rejects, so the guard degrades
        // DenseToBm25 instead of panicking inside the guarded closure.
        || {
            ctx.query_vec
                .as_ref()
                .and_then(|v| sys.retriever.search_dense(v, n))
                .unwrap_or_else(|| vec![ScoredChunk { index: 0, score: f32::NAN }])
        },
        poison_scores,
        |hits| finite_scores(hits),
    );
    let hits = match exact {
        Ok(hits) => hits,
        Err(failure) => {
            push_event(&mut ctx.trace, Component::IndexSearch, Fallback::DenseToBm25, failure);
            sys.fallback_bm25().retrieve(question, n)
        }
    };
    ctx.cand_ids = hits.iter().map(|h| h.index).collect();
    ctx.hits = hits;
    Flow::Continue
}

fn retrieve_bm25(sys: &RagSystem, ctx: &mut QueryCtx<'_>, op: StageOp) -> Flow {
    let n = sys.config.candidates;
    let hits = if matches!(op, StageOp::RetrieveBm25 { fallback: true }) {
        // The degraded substitution for a dense primary that just failed.
        sys.fallback_bm25().retrieve(ctx.question, n)
    } else {
        sys.retriever.retrieve(ctx.question, n)
    };
    ctx.cand_ids = hits.iter().map(|h| h.index).collect();
    ctx.hits = hits;
    Flow::Continue
}

fn retrieval_order(hits: &[ScoredChunk]) -> Vec<RankedChunk> {
    hits.iter()
        .enumerate()
        .map(|(pos, h)| RankedChunk { index: pos, score: h.score })
        .collect()
}

fn rerank(sys: &RagSystem, ctx: &mut QueryCtx<'_>, op: StageOp) -> Flow {
    let scorer = sys.scorer.as_ref().filter(|_| op == StageOp::Rerank(RerankMode::Full));
    let ranked = match scorer {
        Some(scorer) => {
            let texts: Vec<&str> = ctx.cand_ids.iter().map(|&i| sys.chunks[i].as_str()).collect();
            let reranked = ctx.guards.run(
                Component::Reranker,
                ctx.question,
                || scorer.rerank(ctx.question, &texts),
                |rl| {
                    for r in rl.iter_mut() {
                        r.score = f32::NAN;
                    }
                },
                |rl| rl.len() == texts.len() && rl.iter().all(|r| r.score.is_finite()),
            );
            match reranked {
                Ok(rl) => rl,
                Err(failure) => {
                    push_event(
                        &mut ctx.trace,
                        Component::Reranker,
                        Fallback::RerankToRetrievalOrder,
                        failure,
                    );
                    retrieval_order(&ctx.hits)
                }
            }
        }
        None => retrieval_order(&ctx.hits),
    };
    ctx.ranked = ranked;
    Flow::Continue
}

fn select(sys: &RagSystem, ctx: &mut QueryCtx<'_>, op: StageOp) -> Flow {
    let selected_positions: Vec<usize> = if matches!(op, StageOp::Select(SelectMode::Gradient))
    {
        let cfg = SelectionConfig {
            min_k: ctx.min_k,
            gradient: sys.config.gradient,
            max_k: sys.config.candidates,
            ..SelectionConfig::default()
        };
        gradient_select(&ctx.ranked, cfg).iter().map(|r| r.index).collect()
    } else {
        ctx.ranked.iter().take(ctx.min_k.max(1)).map(|r| r.index).collect()
    };
    // The reader is deterministic: re-running with an identical
    // context reproduces the same answer and judgement, so a round
    // whose adjusted min_k selects the same chunks is pure token
    // waste — stop the loop instead.
    if ctx.last_selection.as_deref() == Some(&selected_positions) {
        return Flow::Done;
    }
    ctx.selected = selected_positions.iter().map(|&pos| ctx.cand_ids[pos]).collect();
    ctx.last_selection = Some(selected_positions);
    ctx.context = ctx.selected.iter().map(|&id| sys.chunks[id].clone()).collect();
    Flow::Continue
}

/// One guarded generation call over `context`. `key` is the determinism
/// handle (the question for the round's context, a derived key for the
/// second-best set so the two calls draw independent fault decisions).
fn guarded_generate(
    sys: &RagSystem,
    ctx: &QueryCtx<'_>,
    context: &[String],
    key: &str,
) -> Result<(Option<usize>, Answer), Failure> {
    let question = ctx.question;
    match ctx.options {
        Some(opts) => ctx.guards.run(
            Component::Reader,
            key,
            || {
                let (idx, a) = sys.llm.answer_multiple_choice(question, opts, context);
                (Some(idx), a)
            },
            |(pick, a)| {
                a.text.clear();
                a.confidence = f32::NAN;
                *pick = None;
            },
            |(pick, a)| a.is_wellformed() && pick.is_some_and(|i| i < opts.len()),
        ),
        None => ctx.guards.run(
            Component::Reader,
            key,
            || (None, sys.llm.answer_open(question, context)),
            |(_, a)| {
                a.text.clear();
                a.confidence = f32::NAN;
            },
            |(_, a)| a.is_wellformed(),
        ),
    }
}

/// The reader leg of the degradation chain: the round's context, then the
/// second-best set, then `None` (the fuse stage then degrades to an
/// unanswerable answer).
fn read_with_fallback(sys: &RagSystem, ctx: &mut QueryCtx<'_>) -> Option<RoundAnswer> {
    let failure = match guarded_generate(sys, ctx, &ctx.context, ctx.question) {
        Ok((picked, answer)) => {
            return Some(RoundAnswer { picked, answer, selected: ctx.selected.clone() })
        }
        Err(failure) => failure,
    };
    // Second-best context: the ranked list shifted down by one — drops the
    // (possibly poisoned) top chunk while keeping the context size.
    let alt_ids: Vec<usize> = ctx
        .ranked
        .iter()
        .skip(1)
        .take(ctx.selected.len().max(1))
        .map(|r| ctx.cand_ids[r.index])
        .collect();
    if alt_ids.is_empty() {
        // No second-best set (a fixed context ranks nothing; a single
        // candidate has no runner-up): a read over zero chunks would only
        // bill the reader and the judge for an empty context.
        push_event(&mut ctx.trace, Component::Reader, Fallback::ReaderUnanswerable, failure);
        return None;
    }
    push_event(&mut ctx.trace, Component::Reader, Fallback::ReaderSecondBest, failure);
    let alt_context: Vec<String> = alt_ids.iter().map(|&id| sys.chunks[id].clone()).collect();
    let retry_key = format!("{}\u{1f}second-best", ctx.question);
    match guarded_generate(sys, ctx, &alt_context, &retry_key) {
        Ok((picked, answer)) => Some(RoundAnswer { picked, answer, selected: alt_ids }),
        Err(failure) => {
            push_event(&mut ctx.trace, Component::Reader, Fallback::ReaderUnanswerable, failure);
            None
        }
    }
}

fn read(sys: &RagSystem, ctx: &mut QueryCtx<'_>) -> Flow {
    match read_with_fallback(sys, ctx) {
        Some(round) => {
            ctx.total_cost.merge(round.answer.cost);
            ctx.answer_latency += round.answer.latency;
            ctx.current = Some(round);
            Flow::Continue
        }
        None => {
            // Reader exhausted its contexts. Fault decisions are keyed on
            // the question, so further rounds would fail identically —
            // stop here and fall back to an earlier round's answer (or the
            // degraded unanswerable at fuse).
            ctx.current = None;
            Flow::Done
        }
    }
}

fn feedback(sys: &RagSystem, ctx: &mut QueryCtx<'_>) -> Flow {
    let Some(current) = ctx.current.take() else {
        return Flow::Done;
    };
    // Judge against the context the reader actually saw: the round's own
    // context, or the second-best set when the reader degraded.
    let second_best: Vec<String>;
    let context = if current.selected == ctx.selected {
        &ctx.context
    } else {
        second_best = current.selected.iter().map(|&id| sys.chunks[id].clone()).collect();
        &second_best
    };
    let fb = sys.llm.self_feedback(ctx.question, context, &current.answer);
    ctx.executed_feedback += 1;
    ctx.total_cost.merge(fb.cost);
    ctx.feedback_latency += fb.latency;
    let better = ctx.best.as_ref().is_none_or(|(s, _)| fb.score > *s);
    if better {
        ctx.best = Some((fb.score, current));
    }
    let score = fb.score;
    let adjustment = fb.adjustment;
    ctx.last_feedback = Some(fb);
    if score >= sys.config.feedback_threshold {
        return Flow::Done;
    }
    // Adjust min_k per the judge's context assessment (Figure 2 (C)
    // step 6): -1 drops a chunk, +1 requests one more.
    let next = ctx.min_k as i64 + i64::from(adjustment);
    ctx.min_k = next.clamp(1, sys.config.candidates as i64) as usize;
    Flow::Continue
}

/// The degraded terminal answer: the reader (or the whole feedback loop)
/// produced nothing usable. `latency` is the measured (virtual) time spent
/// reaching this verdict — retry backoff accumulated by the failed
/// attempts — not a zero placeholder.
pub(crate) fn unanswerable(latency: Duration) -> Answer {
    Answer { text: "unanswerable".to_string(), confidence: 0.0, cost: Cost::zero(), latency }
}

fn fuse(ctx: &mut QueryCtx<'_>) -> Flow {
    if ctx.fixed {
        // Fixed-context mode: one read over a caller-chosen context,
        // no selection loop, no degradation bookkeeping in the result.
        if let Some(r) = ctx.unjudged.take().or_else(|| ctx.current.take()) {
            ctx.result = Some(crate::QueryResult::single_read(
                r.answer,
                r.picked,
                r.selected,
                ctx.retrieval_latency,
            ));
        }
        return Flow::Done;
    }
    let (score, answer, picked, selected) = if let Some(u) = ctx.unjudged.take() {
        // A completed round that was never judged (feedback off, or
        // browned out) is final as-is, with no score.
        (None, u.answer, u.picked, u.selected)
    } else {
        match ctx.best.take() {
            Some((s, r)) => (Some(s), r.answer, r.picked, r.selected),
            // No round produced an answer: the reader exhausted its
            // fallbacks, or the loop was configured for zero rounds.
            // Degrade to a well-formed unanswerable result instead of
            // panicking.
            None => (None, unanswerable(ctx.trace.total_delay()), None, Vec::new()),
        }
    };
    ctx.result = Some(crate::QueryResult {
        answer,
        picked_option: picked,
        selected,
        cost: ctx.total_cost,
        feedback_rounds: ctx.executed_feedback,
        retrieval_latency: ctx.retrieval_latency,
        answer_latency: ctx.answer_latency,
        feedback_latency: ctx.feedback_latency,
        feedback_score: score,
        degraded: DegradeTrace::new(),
        brownout: ctx.brownout,
    });
    Flow::Done
}
