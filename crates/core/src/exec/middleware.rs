//! Cross-cutting middleware applied around every executor slot: budget
//! checkpoint charging (before/after) and telemetry span + histogram
//! recording. Both are pure observers of the stage contract — a plan run
//! with no budget and no telemetry hub executes the identical stage
//! sequence with every hook a no-op.

#![expect(
    clippy::disallowed_methods,
    reason = "this module IS the latency measurement layer: stage timings feed the telemetry histograms and QueryResult latency fields; no control flow branches on the readings"
)]

use super::ctx::QueryCtx;
use super::plan::{RerankMode, StageOp};
use super::Flow;
use crate::pipeline::RagSystem;
use sage_admission::{BrownoutLevel, PlanStage};
use sage_resilience::{Component, DegradeEvent, DegradeTrace, Failure, Fallback};
use sage_telemetry::{Stage, Trace};
use std::time::{Duration, Instant};

/// Append one fired fallback to a query's degradation trace.
pub(crate) fn push_event(
    trace: &mut DegradeTrace,
    component: Component,
    fallback: Fallback,
    failure: Failure,
) {
    trace.events.push(DegradeEvent {
        component,
        fallback,
        error: failure.error,
        attempts: failure.attempts,
        delay: failure.delay,
    });
}

/// Open a span on the query trace, if one is being recorded.
pub(crate) fn span_enter(qt: &mut Option<Trace>, name: &'static str) -> Option<usize> {
    qt.as_mut().map(|t| t.enter(name))
}

/// Close a span opened by [`span_enter`].
pub(crate) fn span_exit(qt: &mut Option<Trace>, id: Option<usize>) {
    if let (Some(t), Some(id)) = (qt.as_mut(), id) {
        t.exit(id);
    }
}

fn elapsed(start: Option<Instant>) -> Duration {
    start.map(|t| t.elapsed()).unwrap_or(Duration::ZERO)
}

/// Budget middleware, entry side: charge the work about to run at the
/// deterministic cost model and replan at the stage's checkpoint. Returns
/// the ratcheted level the executor rewrites the remaining plan with.
///
/// The charge/checkpoint order per stage is load-bearing and mirrors the
/// pre-executor inline accounting exactly: rerank charges the first-stage
/// work *then* replans *then* charges its own work at the level just
/// decided; selection replans first and only charges when it will actually
/// run the gradient pass.
pub(crate) fn budget_before(ctx: &mut QueryCtx<'_>, op: StageOp) -> Option<BrownoutLevel> {
    let ctl = ctx.bctl.as_mut()?;
    match op {
        StageOp::Rerank(_) => {
            let model = *ctl.meter.model();
            ctl.meter.charge_time(model.embed_time + model.search_time);
            let left = ctl.rounds_left(0);
            let level = ctl.checkpoint(PlanStage::Rerank, left, &mut ctx.trace);
            // Charge the rerank work at the level just decided; the plan
            // and the spend use the same model values.
            ctl.meter.charge_time(model.rerank_cost(level, ctl.candidates));
            Some(level)
        }
        StageOp::Select(_) => {
            let left = ctl.rounds_left(ctx.executed_feedback);
            let level = ctl.checkpoint(PlanStage::Select, left, &mut ctx.trace);
            if level < BrownoutLevel::FlatTopK {
                let d = ctl.meter.model().select_time;
                ctl.meter.charge_time(d);
            }
            Some(level)
        }
        StageOp::Read => {
            let left = ctl.rounds_left(ctx.executed_feedback);
            Some(ctl.checkpoint(PlanStage::Read, left, &mut ctx.trace))
        }
        _ => None,
    }
}

/// Budget middleware, exit side: settle a completed stage's spend and run
/// the post-read feedback checkpoint (the rung that decides whether the
/// loop may still afford judging — its rewrite drops the feedback op).
pub(crate) fn budget_after(
    ctx: &mut QueryCtx<'_>,
    op: StageOp,
    flow: Flow,
) -> Option<BrownoutLevel> {
    let ctl = ctx.bctl.as_mut()?;
    match (op, flow) {
        // A read that produced nothing charges nothing: the reader
        // exhausted its fallbacks and the loop stops here.
        (StageOp::Read, Flow::Continue) => {
            let model = *ctl.meter.model();
            ctl.meter.charge_time(model.read_time);
            ctl.meter.charge_tokens(model.read_tokens_at(ctl.meter.level()));
            let left = ctl.rounds_left(ctx.executed_feedback);
            Some(ctl.checkpoint(PlanStage::Feedback, left, &mut ctx.trace))
        }
        (StageOp::Feedback, _) => {
            let model = *ctl.meter.model();
            ctl.meter.charge_time(model.feedback_round_time);
            ctl.meter.charge_tokens(model.feedback_round_tokens);
            None
        }
        _ => None,
    }
}

/// Telemetry middleware, entry side: start the stage clock and open the
/// matching span(s). The retrieve span wraps the whole first stage (embed
/// plus search), so it opens lazily at whichever retrieval op runs first
/// and stays open across the embed → search (or embed → BM25 fallback)
/// boundary.
pub(crate) fn tel_before(sys: &RagSystem, ctx: &mut QueryCtx<'_>, op: StageOp) {
    match op {
        StageOp::Embed => {
            if ctx.retrieve_start.is_none() {
                ctx.retrieve_start = Some(Instant::now());
                ctx.retrieve_sid = span_enter(&mut ctx.qt, "retrieve");
            }
            ctx.stage_start = Some(Instant::now());
            ctx.embed_sid = span_enter(&mut ctx.qt, "embed");
        }
        StageOp::RetrieveDense | StageOp::RetrieveBm25 { .. }
            if ctx.retrieve_start.is_none() =>
        {
            ctx.retrieve_start = Some(Instant::now());
            ctx.retrieve_sid = span_enter(&mut ctx.qt, "retrieve");
        }
        StageOp::Rerank(mode) => {
            ctx.stage_start = Some(Instant::now());
            // A span only when the cross-encoder actually scores pairs.
            ctx.stage_sid = if !matches!(mode, RerankMode::Bypass) && sys.scorer.is_some() {
                span_enter(&mut ctx.qt, "rerank")
            } else {
                None
            };
        }
        StageOp::Read => {
            ctx.stage_start = Some(Instant::now());
            ctx.stage_sid = span_enter(&mut ctx.qt, "read");
        }
        StageOp::Feedback => {
            ctx.stage_start = Some(Instant::now());
            ctx.stage_sid = span_enter(&mut ctx.qt, "feedback");
        }
        _ => {}
    }
}

/// Telemetry middleware, exit side: annotate + close the stage span,
/// observe the stage histogram, and attribute token cost. Runs for every
/// flow — a degraded or terminal stage still reports its timing.
pub(crate) fn tel_after(sys: &RagSystem, ctx: &mut QueryCtx<'_>, op: StageOp, _flow: Flow) {
    match op {
        StageOp::Embed => {
            span_exit(&mut ctx.qt, ctx.embed_sid.take());
            sys.tel_stage(Stage::Embed, elapsed(ctx.stage_start));
        }
        StageOp::RetrieveDense | StageOp::RetrieveBm25 { .. } => {
            if let (Some(t), Some(id)) = (ctx.qt.as_mut(), ctx.retrieve_sid.take()) {
                t.field(id, "candidates", ctx.cand_ids.len());
                t.exit(id);
            }
            sys.tel_stage(Stage::Retrieve, elapsed(ctx.retrieve_start));
        }
        StageOp::Rerank(_) => {
            if let (Some(t), Some(id)) = (ctx.qt.as_mut(), ctx.stage_sid.take()) {
                t.field(id, "pairs", ctx.ranked.len());
                t.exit(id);
                sys.tel_stage(Stage::Rerank, elapsed(ctx.stage_start));
            } else if sys.scorer.is_some() {
                // Bypassed-but-configured rerank still observes its (near
                // zero) stage time, so budgeted and unbudgeted histograms
                // stay comparable.
                sys.tel_stage(Stage::Rerank, elapsed(ctx.stage_start));
            }
        }
        StageOp::Read => {
            if let (Some(t), Some(id)) = (ctx.qt.as_mut(), ctx.stage_sid.take()) {
                if !ctx.fixed {
                    t.field(id, "round", ctx.round);
                }
                if let Some(cur) = &ctx.current {
                    t.field(id, "context_chunks", cur.selected.len());
                    t.field(id, "input_tokens", cur.answer.cost.input_tokens);
                    t.field(id, "output_tokens", cur.answer.cost.output_tokens);
                }
                t.exit(id);
            }
            sys.tel_stage(Stage::Read, elapsed(ctx.stage_start));
            if let Some(cur) = &ctx.current {
                sys.tel_cost(Stage::Read, &cur.answer.cost);
            }
        }
        StageOp::Feedback => {
            if let (Some(t), Some(id)) = (ctx.qt.as_mut(), ctx.stage_sid.take()) {
                if let Some(fb) = &ctx.last_feedback {
                    t.field(id, "score", u64::from(fb.score));
                    t.field(id, "adjustment", i64::from(fb.adjustment));
                }
                t.exit(id);
            }
            sys.tel_stage(Stage::Feedback, elapsed(ctx.stage_start));
            if let Some(fb) = &ctx.last_feedback {
                sys.tel_cost(Stage::Feedback, &fb.cost);
            }
        }
        _ => {}
    }
}
