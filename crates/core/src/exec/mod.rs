//! The stage-graph query execution engine.
//!
//! One deterministic executor runs every query path: a [`QueryPlan`]
//! (resolved from the configuration) is executed slot by slot, with the
//! cross-cutting concerns — budget checkpoint charging, brownout plan
//! rewrites, telemetry spans/histograms/ledger, resilience `catch_unwind`
//! at the public boundary — applied as middleware around the stages
//! instead of hand-stitched at each entry point. `pipeline.rs` keeps only
//! thin plan builders over [`execute`], [`execute_fixed`],
//! [`execute_caught`], and [`run_prelude`].
//!
//! Per-slot middleware order (load-bearing, see DESIGN.md §11):
//! budget-before → rung rewrite → op re-fetch → telemetry-open → stage →
//! telemetry-close → budget-after → rung rewrite.

mod batch;
mod ctx;
mod middleware;
mod plan;
pub(crate) mod scatter;
mod stages;

pub(crate) use ctx::QueryCtx;
pub use plan::{Fanout, QueryPlan, RerankMode, SelectMode, StageOp};
use plan::Loc;

use crate::pipeline::RagSystem;
use crate::resilience::QueryGuards;
use crate::QueryResult;
use sage_admission::{BudgetMeter, PlanStage, QueryBudget};
use sage_rerank::RankedChunk;
use sage_resilience::{Fallback, SageError};
use sage_telemetry::Trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What a completed slot tells the executor about the rest of the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Proceed to the next slot.
    Continue,
    /// The query is decided: skip the remaining round slots and fuse.
    Done,
    /// The embedder is exhausted; splice the BM25 substitution in for the
    /// pending dense search.
    FallbackToBm25,
}

/// Run one slot: the full middleware sandwich around a single stage. The
/// op is re-fetched after the budget rewrite because the checkpoint may
/// have rewritten the very slot about to run (e.g. `Select(Gradient)` →
/// `Select(Flat)` at the FlatTopK rung).
fn exec_slot(sys: &RagSystem, plan: &mut QueryPlan, ctx: &mut QueryCtx<'_>, loc: Loc) -> Flow {
    let op = plan.get(loc);
    if let Some(level) = middleware::budget_before(ctx, op) {
        plan.apply_rung(level);
    }
    let op = plan.get(loc);
    middleware::tel_before(sys, ctx, op);
    let flow = stages::run(sys, ctx, op);
    middleware::tel_after(sys, ctx, op, flow);
    if let Some(level) = middleware::budget_after(ctx, op, flow) {
        plan.apply_rung(level);
    }
    flow
}

/// Run the prelude slots (retrieval + rerank) of `plan` over `ctx`.
fn run_prelude_slots(sys: &RagSystem, plan: &mut QueryPlan, ctx: &mut QueryCtx<'_>) {
    let mut i = 0;
    // Re-check the length each step: fallback splices may have rewritten
    // the remaining prelude.
    while i < plan.prelude.len() {
        if exec_slot(sys, plan, ctx, Loc::Prelude(i)) == Flow::FallbackToBm25 {
            plan.on_bm25_fallback(i + 1);
        }
        i += 1;
    }
}

/// Run a full plan to a fused result on `ctx.result`: the prelude once,
/// the round template up to `max_rounds` times, then the bare fuse.
#[expect(
    clippy::disallowed_methods,
    reason = "the executor owns the query/prelude latency measurement previously inlined in pipeline.rs; no control flow branches on the readings"
)]
fn run_plan(sys: &RagSystem, plan: &mut QueryPlan, ctx: &mut QueryCtx<'_>) {
    if !plan.prelude.is_empty() {
        let prelude_start = Instant::now();
        run_prelude_slots(sys, plan, ctx);
        ctx.retrieval_latency = prelude_start.elapsed();
    }
    'rounds: for round in 0..plan.max_rounds {
        ctx.round = round;
        let mut j = 0;
        // Re-checked each step: a brownout rewrite may drop the feedback
        // slot from the round being run.
        while j < plan.round.len() {
            if exec_slot(sys, plan, ctx, Loc::Round(j)) == Flow::Done {
                break 'rounds;
            }
            j += 1;
        }
        // A completed round with no judging left in the plan (feedback
        // off, or browned out by a rewrite) is final: without a score
        // there is nothing to compare further rounds by.
        if !plan.has_feedback() {
            if ctx.best.is_none() {
                ctx.unjudged = ctx.current.take();
            }
            break 'rounds;
        }
    }
    // The terminal fuse runs bare (no middleware).
    stages::run(sys, ctx, StageOp::Fuse);
}

/// Finalize: stamp the degradation trace into the result, absorb it into
/// the resilience counters, and flush the query's telemetry (degrade
/// events folded into the span trace, query histogram, trace ring).
/// Shared by every path — on a clean unbudgeted query each step is a
/// no-op by construction.
fn finalize(sys: &RagSystem, mut ctx: QueryCtx<'_>, total: Duration) -> QueryResult {
    let mut result = ctx.result.take().unwrap_or_else(|| {
        // Unreachable: fuse always sets a result. Degrade to an honest
        // empty result rather than panicking on the serving path.
        QueryResult::single_read(stages::unanswerable(Duration::ZERO), None, Vec::new(), Duration::ZERO)
    });
    result.degraded = ctx.trace;
    if let Some(state) = &sys.resilience {
        state.counters.absorb(&result.degraded);
    }
    if let (Some(hub), Some(mut t)) = (&sys.telemetry, ctx.qt.take()) {
        // Fold this query's degradation events into the same trace so one
        // record explains both where time went and what fell back.
        for e in &result.degraded.events {
            let id = t.event("degrade");
            t.field(id, "component", e.component.label());
            t.field(id, "fallback", e.fallback.label());
            t.field(id, "error", e.error.to_string());
            t.field(id, "attempts", u64::from(e.attempts));
            t.field(id, "virtual_delay_ns", e.delay.as_nanos() as u64);
        }
        hub.record_degrades(result.degraded.events.len() as u64);
        hub.record_query(total);
        hub.push_trace(t);
    }
    result
}

impl RagSystem {
    /// The query plan this system's configuration resolves to, with the
    /// scatter-gather fan-out attached when sharded serving is on.
    pub(crate) fn resolve_plan(&self) -> QueryPlan {
        let plan =
            QueryPlan::resolve(&self.config, self.retriever.is_dense(), self.scorer.is_some());
        match &self.shards {
            Some(ss) => plan.with_fanout(ss.fanout),
            None => plan,
        }
    }
}

/// Resolve the plan and assemble the fresh context for one query: plan
/// resolution (with shard fan-out), guard arming, trace opening, and the
/// brownout admission gate (replan once before any work so a hopeless
/// budget walks the ladder immediately).
fn prepare<'a>(
    sys: &'a RagSystem,
    question: &'a str,
    options: Option<&'a [String]>,
    budget: Option<QueryBudget>,
) -> (QueryPlan, QueryCtx<'a>) {
    let mut plan = sys.resolve_plan();
    let guards = sys.resilience.as_ref().map(QueryGuards::new);
    let qt = sys.telemetry.as_ref().map(|_| Trace::start(question));
    let planned_rounds =
        if sys.config.use_feedback { sys.config.max_feedback_rounds as u32 } else { 0 };
    let bctl = budget.map(|b| BudgetMeter::new(b, sys.config.candidates, planned_rounds));
    let mut ctx = QueryCtx::new(question, options, guards, qt, bctl, sys.config.min_k);
    if let Some(meter) = ctx.bctl.as_mut() {
        plan.apply_rung(middleware::checkpoint(meter, PlanStage::Start, &mut ctx.trace));
    }
    (plan, ctx)
}

/// Prepare and run one query to its fused context, timing the plan run —
/// everything but [`finalize`], which a batch defers so its cross-query
/// effects land in input order.
#[expect(
    clippy::disallowed_methods,
    reason = "the executor owns the query/prelude latency measurement previously inlined in pipeline.rs; no control flow branches on the readings"
)]
fn run_query<'a>(
    sys: &'a RagSystem,
    question: &'a str,
    options: Option<&'a [String]>,
    budget: Option<QueryBudget>,
) -> (QueryCtx<'a>, Duration) {
    let (mut plan, mut ctx) = prepare(sys, question, options, budget);
    let query_start = Instant::now();
    run_plan(sys, &mut plan, &mut ctx);
    (ctx, query_start.elapsed())
}

/// Execute the full query plan for `question`: the one entry point behind
/// `answer_open`, `answer_multiple_choice`, and the `*_budgeted` pair.
pub(crate) fn execute(
    sys: &RagSystem,
    question: &str,
    options: Option<&[String]>,
    budget: Option<QueryBudget>,
) -> QueryResult {
    let (ctx, total) = run_query(sys, question, options, budget);
    finalize(sys, ctx, total)
}

/// Run `f` with panic isolation: a panic becomes
/// `Err(SageError::Panicked)` and is counted on the resilience ledger.
fn caught<T>(sys: &RagSystem, f: impl FnOnce() -> T) -> Result<T, SageError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(state) = &sys.resilience {
            state.counters.record(Fallback::PanicIsolated);
        }
        SageError::from_panic(payload)
    })
}

/// [`execute`] with panic isolation: a panic anywhere in the pipeline
/// becomes `Err(SageError::Panicked)`.
pub(crate) fn execute_caught(
    sys: &RagSystem,
    question: &str,
    options: Option<&[String]>,
    budget: Option<QueryBudget>,
) -> Result<QueryResult, SageError> {
    caught(sys, || execute(sys, question, options, budget))
}

/// Execute the fixed-context plan: one generation call over explicit
/// chunk ids (no retrieval, no selection, no feedback loop).
#[expect(
    clippy::disallowed_methods,
    reason = "the executor owns the query/prelude latency measurement previously inlined in pipeline.rs; no control flow branches on the readings"
)]
pub(crate) fn execute_fixed(
    sys: &RagSystem,
    question: &str,
    chunk_ids: &[usize],
    options: Option<&[String]>,
) -> QueryResult {
    let mut plan = QueryPlan::fixed();
    let qt = sys.telemetry.as_ref().map(|_| Trace::start(question));
    let mut ctx = QueryCtx::new(question, options, None, qt, None, sys.config.min_k);
    ctx.fixed = true;
    let query_start = Instant::now();
    // No retrieval runs on this path; the "retrieval" latency is the
    // (real, measured) context-assembly time rather than a zero
    // placeholder.
    let assemble_start = Instant::now();
    // The ids are the caller's: skip any the chunk store does not hold,
    // so `selected` lists exactly the chunks the reader saw.
    ctx.selected = chunk_ids.iter().copied().filter(|&id| id < sys.chunks.len()).collect();
    ctx.context = ctx.selected.iter().map(|&id| sys.chunks[id].clone()).collect();
    ctx.retrieval_latency = assemble_start.elapsed();
    run_plan(sys, &mut plan, &mut ctx);
    finalize(sys, ctx, query_start.elapsed())
}

/// Execute only the prelude (retrieval + rerank) unguarded and unbudgeted:
/// the engine behind [`crate::RagSystem::candidates`] and
/// [`crate::RagSystem::rerank_scores`]. Histogram stages still record when
/// a hub is attached, but no span trace is kept.
pub(crate) fn run_prelude(sys: &RagSystem, question: &str) -> (Vec<usize>, Vec<RankedChunk>) {
    let mut ctx = QueryCtx::new(question, None, None, None, None, sys.config.min_k);
    run_prelude_slots(sys, &mut sys.resolve_plan(), &mut ctx);
    (ctx.cand_ids, ctx.ranked)
}
