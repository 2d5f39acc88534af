//! The stage implementations: each stage function consumes typed inputs
//! from the [`QueryCtx`] blackboard and leaves typed outputs for the next
//! op.
//! Resilience guards live *inside* the stages (each stage knows its own
//! validator and fallback), while budget and telemetry concerns stay in
//! the middleware — a stage never touches the meter or the span trace
//! except to append degrade events.

use super::ctx::{QueryCtx, RoundAnswer};
use super::middleware::push_event;
use super::plan::{RerankMode, SelectMode, StageOp};
use super::Flow;
use crate::pipeline::RagSystem;
use crate::resilience::QueryGuards;
use sage_admission::BrownoutLevel;
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
    match ctx.guards.as_ref() {
        Some(g) => {
            let embedded = g.guard(Component::Embedder).run(
                Component::Embedder,
                ctx.question,
                // None embeds as the empty vector, which the validator
                // below rejects, so the guard degrades DenseToBm25
                // instead of panicking inside the guarded closure.
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
                    push_event(
                        &mut ctx.trace,
                        Component::Embedder,
                        Fallback::DenseToBm25,
                        failure,
                    );
                    Flow::FallbackToBm25
                }
            }
        }
        None => {
            ctx.query_vec = sys.retriever.embed_query(ctx.question);
            Flow::Continue
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
    let trace = &mut ctx.trace;
    let hits = match (ctx.guards.as_ref(), ctx.query_vec.as_ref()) {
        (Some(g), Some(query_vec)) => {
            let exact = g.guard(Component::IndexSearch).run(
                Component::IndexSearch,
                question,
                // None becomes a single NaN-scored sentinel hit, which the
                // validator rejects, so the guard degrades DenseToBm25
                // instead of panicking inside the guarded closure.
                || {
                    sys.retriever
                        .search_dense(query_vec, n)
                        .unwrap_or_else(|| vec![ScoredChunk { index: 0, score: f32::NAN }])
                },
                poison_scores,
                |hits| finite_scores(hits),
            );
            match exact {
                Ok(hits) => hits,
                Err(failure) => {
                    push_event(trace, Component::IndexSearch, Fallback::DenseToBm25, failure);
                    g.state.bm25.retrieve(question, n)
                }
            }
        }
        // Unguarded path; a retriever that reports is_dense() but
        // cannot embed or search falls back to its own entry point
        // instead of aborting the query.
        (_, query_vec) => match query_vec.and_then(|v| sys.retriever.search_dense(v, n)) {
            Some(hits) => hits,
            None => sys.retriever.retrieve(question, n),
        },
    };
    ctx.cand_ids = hits.iter().map(|h| h.index).collect();
    ctx.hits = hits;
    Flow::Continue
}

fn retrieve_bm25(sys: &RagSystem, ctx: &mut QueryCtx<'_>, op: StageOp) -> Flow {
    let n = sys.config.candidates;
    let fallback = matches!(op, StageOp::RetrieveBm25 { fallback: true });
    let hits = match (fallback, ctx.guards.as_ref()) {
        // The degraded substitution retrieves from the resilience
        // layer's BM25 tier (the primary retriever is dense and just
        // failed).
        (true, Some(g)) => g.state.bm25.retrieve(ctx.question, n),
        _ => sys.retriever.retrieve(ctx.question, n),
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
    let mode = match op {
        StageOp::Rerank(m) => m,
        _ => RerankMode::Bypass,
    };
    let scorer = sys.scorer.as_ref().filter(|_| !matches!(mode, RerankMode::Bypass));
    let ranked = match scorer {
        Some(scorer) => {
            // ShrinkRerank scores only the top half of the candidate
            // pool (the first-stage order is the quality prior).
            let keep = if matches!(mode, RerankMode::Shrunk) {
                (ctx.cand_ids.len() / 2).max(1).min(ctx.cand_ids.len())
            } else {
                ctx.cand_ids.len()
            };
            let texts: Vec<&str> =
                ctx.cand_ids[..keep].iter().map(|&i| sys.chunks[i].as_str()).collect();
            match ctx.guards.as_ref() {
                None => scorer.rerank(ctx.question, &texts),
                Some(g) => {
                    let reranked = g.guard(Component::Reranker).run(
                        Component::Reranker,
                        ctx.question,
                        || scorer.rerank(ctx.question, &texts),
                        |rl| {
                            for r in rl.iter_mut() {
                                r.score = f32::NAN;
                            }
                        },
                        |rl| {
                            rl.len() == texts.len()
                                && rl.iter().all(|r| r.score.is_finite())
                        },
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

/// One guarded generation call. `key` is the determinism handle (the
/// question for the primary context, a derived key for the retry so the
/// two calls draw independent fault decisions).
fn guarded_generate(
    sys: &RagSystem,
    question: &str,
    options: Option<&[String]>,
    context: &[String],
    key: &str,
    g: &QueryGuards<'_>,
) -> Result<(Option<usize>, Answer), Failure> {
    let guard = g.guard(Component::Reader);
    match options {
        Some(opts) => guard.run(
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
        None => guard.run(
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

/// The reader leg of the degradation chain. Returns `None` when both the
/// primary and the second-best context are exhausted (the fuse stage then
/// degrades to an unanswerable answer); otherwise the generation result
/// plus the chunk ids actually used.
#[allow(
    clippy::too_many_arguments,
    reason = "the reader leg of the degradation chain: the primary context plus the ranked list the second-best context is cut from"
)]
fn read_with_fallback(
    sys: &RagSystem,
    question: &str,
    options: Option<&[String]>,
    selected: Vec<usize>,
    context: &[String],
    ranked: &[RankedChunk],
    cand_ids: &[usize],
    g: &QueryGuards<'_>,
    trace: &mut DegradeTrace,
) -> Option<(Option<usize>, Answer, Vec<usize>)> {
    match guarded_generate(sys, question, options, context, question, g) {
        Ok((pick, a)) => Some((pick, a, selected)),
        Err(failure) => {
            push_event(trace, Component::Reader, Fallback::ReaderSecondBest, failure);
            // Second-best context: the ranked list shifted down by one —
            // drops the (possibly poisoned) top chunk while keeping the
            // context size.
            let alt_ids: Vec<usize> = ranked
                .iter()
                .skip(1)
                .take(selected.len().max(1))
                .map(|r| cand_ids[r.index])
                .collect();
            let alt_context: Vec<String> =
                alt_ids.iter().map(|&id| sys.chunks[id].clone()).collect();
            let retry_key = format!("{question}\u{1f}second-best");
            match guarded_generate(sys, question, options, &alt_context, &retry_key, g) {
                Ok((pick, a)) => Some((pick, a, alt_ids)),
                Err(failure) => {
                    push_event(trace, Component::Reader, Fallback::ReaderUnanswerable, failure);
                    None
                }
            }
        }
    }
}

fn read(sys: &RagSystem, ctx: &mut QueryCtx<'_>) -> Flow {
    let generated = match ctx.guards.as_ref() {
        None => {
            let (picked, answer) = match ctx.options {
                Some(opts) => {
                    let (idx, a) =
                        sys.llm.answer_multiple_choice(ctx.question, opts, &ctx.context);
                    (Some(idx), a)
                }
                None => (None, sys.llm.answer_open(ctx.question, &ctx.context)),
            };
            Some((picked, answer, ctx.selected.clone()))
        }
        Some(g) => read_with_fallback(
            sys,
            ctx.question,
            ctx.options,
            ctx.selected.clone(),
            &ctx.context,
            &ctx.ranked,
            &ctx.cand_ids,
            g,
            &mut ctx.trace,
        ),
    };
    match generated {
        Some((picked, answer, selected)) => {
            ctx.total_cost.merge(answer.cost);
            ctx.answer_latency += answer.latency;
            ctx.current = Some(RoundAnswer { picked, answer, selected });
            Flow::Continue
        }
        None => {
            // Reader exhausted both contexts. Fault decisions are keyed
            // on the question, so further rounds would fail identically
            // — stop here and fall back to an earlier round's answer
            // (or the degraded unanswerable at fuse).
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
    let brownout = ctx.bctl.as_ref().map_or(BrownoutLevel::None, |m| m.level());
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
        brownout,
    });
    Flow::Done
}
