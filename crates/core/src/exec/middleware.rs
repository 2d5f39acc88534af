//! Cross-cutting middleware applied around every executor slot: the budget
//! checkpoints (which stage runs which [`PlanStage`] of the meter, and the
//! one place a newly crossed brownout rung is recorded) and telemetry span
//! and histogram recording. Both are pure observers of the stage contract:
//! a plan run with no budget and no telemetry hub executes the identical
//! stage sequence with every hook a no-op. What a checkpoint charges is
//! the meter's business (`sage_admission::budget`), not this module's.

#![expect(
    clippy::disallowed_methods,
    reason = "this module IS the latency measurement layer: stage timings feed the telemetry histograms and QueryResult latency fields; no control flow branches on the readings"
)]

use super::ctx::QueryCtx;
use super::plan::{RerankMode, StageOp};
use super::Flow;
use crate::pipeline::RagSystem;
use sage_admission::{BrownoutLevel, BudgetMeter, PlanStage};
use sage_resilience::{Component, DegradeEvent, DegradeTrace, Failure, Fallback, SageError};
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

/// Run the meter's checkpoint at `stage` and record every ladder step it
/// newly crossed — `(level before, level after]`, so a jump over several
/// rungs reports each one: the ladder is cumulative and all of those
/// mitigations are in effect. Returns the ratcheted level the executor
/// rewrites the remaining plan with.
pub(crate) fn checkpoint(
    meter: &mut BudgetMeter,
    stage: PlanStage,
    trace: &mut DegradeTrace,
) -> BrownoutLevel {
    let before = meter.level();
    let after = meter.checkpoint(stage);
    for rung in BrownoutLevel::ALL.into_iter().filter(|r| before < *r && *r <= after) {
        record_rung(rung, trace);
    }
    after
}

/// The single recording point for a newly crossed brownout rung: the
/// degradation-trace entry (the same trace the fault-driven fallback chain
/// writes to, so one report explains both) and the
/// `sage_brownout_total{stage=...}` counter bump happen here and nowhere
/// else. The per-query telemetry span event is derived from the trace
/// entry in `exec::finalize`, so all three sinks stay reconciled by
/// construction.
///
/// Rungs reuse the existing [`Component`] set — the resilience layer sizes
/// its per-query guard and fault-plan arrays by `Component::COUNT`, and
/// budget pressure is not a component fault: feedback drops attribute to
/// the `Reader` (the calls being skipped), rerank steps to the `Reranker`,
/// flat selection to `IndexSearch` (the stage whose order the flat prefix
/// preserves).
fn record_rung(rung: BrownoutLevel, trace: &mut DegradeTrace) {
    let (component, fallback, stage) = match rung {
        BrownoutLevel::DropFeedback => {
            (Component::Reader, Fallback::BrownoutDropFeedback, "feedback")
        }
        BrownoutLevel::ShrinkRerank => {
            (Component::Reranker, Fallback::BrownoutShrinkRerank, "rerank")
        }
        BrownoutLevel::SkipRerank => {
            (Component::Reranker, Fallback::BrownoutSkipRerank, "rerank")
        }
        BrownoutLevel::FlatTopK => {
            (Component::IndexSearch, Fallback::BrownoutFlatTopK, "selection")
        }
        // `None` is not a rung; nothing to record.
        BrownoutLevel::None => return,
    };
    trace.events.push(DegradeEvent {
        component,
        fallback,
        error: SageError::BudgetExhausted { stage },
        attempts: 0,
        delay: Duration::ZERO,
    });
    sage_telemetry::metrics::BROWNOUT_TOTAL.inc(rung.idx().saturating_sub(1));
}

/// Budget middleware, entry side: the checkpoint a stage passes before it
/// runs.
pub(crate) fn budget_before(ctx: &mut QueryCtx<'_>, op: StageOp) -> Option<BrownoutLevel> {
    let meter = ctx.bctl.as_mut()?;
    let stage = match op {
        StageOp::Rerank(_) => PlanStage::Rerank,
        StageOp::Select(_) => PlanStage::Select,
        StageOp::Read => PlanStage::Read,
        _ => return None,
    };
    Some(checkpoint(meter, stage, &mut ctx.trace))
}

/// Budget middleware, exit side: the post-read feedback checkpoint (the
/// rung that decides whether the loop may still afford judging — its
/// rewrite drops the feedback op) and the settle of a finished judge call.
pub(crate) fn budget_after(
    ctx: &mut QueryCtx<'_>,
    op: StageOp,
    flow: Flow,
) -> Option<BrownoutLevel> {
    let meter = ctx.bctl.as_mut()?;
    match (op, flow) {
        // A read that produced nothing charges nothing: the reader
        // exhausted its fallbacks and the loop stops here.
        (StageOp::Read, Flow::Continue) => {
            Some(checkpoint(meter, PlanStage::Feedback, &mut ctx.trace))
        }
        (StageOp::Feedback, _) => {
            meter.settle_feedback();
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

#[cfg(test)]
mod tests {
    use super::*;
    use sage_admission::QueryBudget;

    #[test]
    fn a_jump_reports_every_intermediate_step() {
        // A deadline below one read forces FlatTopK straight from None;
        // all four ladder steps must land in the trace, in ladder order.
        let mut meter =
            BudgetMeter::new(QueryBudget::new(Duration::from_millis(100), u64::MAX), 20, 3);
        let mut trace = DegradeTrace::new();
        let level = checkpoint(&mut meter, PlanStage::Start, &mut trace);
        assert_eq!(level, BrownoutLevel::FlatTopK);
        let steps: Vec<u8> =
            trace.events.iter().filter_map(|e| e.fallback.brownout_step()).collect();
        assert_eq!(steps, vec![1, 2, 3, 4]);
        // A later checkpoint at the same level reports nothing new.
        checkpoint(&mut meter, PlanStage::Read, &mut trace);
        assert_eq!(trace.events.len(), 4);
    }

    #[test]
    fn generous_budget_reports_nothing() {
        let mut meter = BudgetMeter::new(QueryBudget::generous(), 20, 3);
        let mut trace = DegradeTrace::new();
        for stage in [
            PlanStage::Start,
            PlanStage::Rerank,
            PlanStage::Select,
            PlanStage::Read,
            PlanStage::Feedback,
        ] {
            assert_eq!(checkpoint(&mut meter, stage, &mut trace), BrownoutLevel::None);
        }
        assert!(trace.is_clean());
    }
}
