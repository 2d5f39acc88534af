//! The stage-graph query execution engine.
//!
//! One deterministic executor runs every query path: a [`QueryPlan`]
//! (resolved from the configuration, and rewritten once to the brownout
//! rung the request's budget plans at admission) is executed slot by
//! slot, with telemetry spans/histograms/ledger applied as middleware
//! around the stages and `catch_unwind` at the public boundary. Every
//! query runs behind its own [`Guards`] under the system's fault plan;
//! the stages hold the validators and the fallback chain. Every request
//! enters through [`execute`] (behind [`crate::RagSystem::answer`], which
//! adds the panic boundary); [`run_prelude`] serves
//! [`crate::RagSystem::candidates`].
//!
//! Per-slot middleware (DESIGN.md §11): telemetry-open → stage →
//! telemetry-close.

mod batch;
mod ctx;
mod middleware;
mod plan;
mod stages;

pub(crate) use ctx::QueryCtx;
pub use plan::{QueryPlan, RerankMode, SelectMode, StageOp};

use crate::pipeline::{RagSystem, Request};
use crate::QueryResult;
use sage_rerank::RankedChunk;
use sage_resilience::{Fallback, Guards, SageError};
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

/// Run one slot: the telemetry middleware around a single stage.
fn exec_slot(sys: &RagSystem, ctx: &mut QueryCtx<'_>, op: StageOp) -> Flow {
    middleware::tel_before(sys, ctx, op);
    let flow = stages::run(sys, ctx, op);
    middleware::tel_after(sys, ctx, op);
    flow
}

/// Run the prelude slots (retrieval + rerank) of `plan` over `ctx`.
fn run_prelude_slots(sys: &RagSystem, plan: &mut QueryPlan, ctx: &mut QueryCtx<'_>) {
    for i in 0..plan.prelude.len() {
        // Indexed, not iterated: a fallback splice rewrites the next slot.
        if exec_slot(sys, ctx, plan.prelude[i]) == Flow::FallbackToBm25 {
            plan.on_bm25_fallback(i + 1);
        }
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
        for &op in &plan.round {
            if exec_slot(sys, ctx, op) == Flow::Done {
                break 'rounds;
            }
        }
        // A completed round with no judging in the plan (feedback off, or
        // browned out) is final: without a score there is nothing to
        // compare further rounds by.
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
/// the system's fallback counters, and flush the query's telemetry (degrade
/// events folded into the span trace, query histogram, trace ring).
/// Shared by every path — on a clean unbudgeted query each step is a
/// no-op by construction.
fn finalize(sys: &RagSystem, mut ctx: QueryCtx<'_>, total: Duration) -> QueryResult {
    let mut result = ctx.result.take().unwrap_or_else(|| {
        // Only a fixed context whose reader exhausted its fallbacks, or a
        // request with an empty option list, leaves no result: degrade to
        // the unanswerable verdict, whose latency is the virtual backoff
        // spent reaching it.
        let answer = stages::unanswerable(ctx.trace.total_delay());
        QueryResult::single_read(answer, None, Vec::new(), ctx.retrieval_latency)
    });
    result.degraded = ctx.trace;
    sys.counters.absorb(&result.degraded);
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
    /// The query plan this system's configuration resolves to.
    pub(crate) fn resolve_plan(&self) -> QueryPlan {
        QueryPlan::resolve(&self.config, self.retriever.is_dense(), self.scorer.is_some())
    }
}

/// Resolve the plan and assemble the fresh context for one request: plan
/// resolution (the one-read fixed plan over a pre-assembled context when
/// the request names its chunks), fresh guards, trace opening, and the
/// brownout rung the budget plans, applied to the whole plan before any
/// work.
#[expect(
    clippy::disallowed_methods,
    reason = "a fixed context's assembly time is its measured retrieval latency; no control flow branches on the reading"
)]
fn prepare<'a>(sys: &'a RagSystem, req: &Request<'a>) -> (QueryPlan, QueryCtx<'a>) {
    let guards = Guards::new(&sys.faults);
    let qt = sys.telemetry.as_ref().map(|_| Trace::start(req.question));
    let mut ctx = QueryCtx::new(req.question, req.options, guards, qt, sys.config.min_k);
    let mut plan = match req.chunks {
        None => sys.resolve_plan(),
        Some(ids) => {
            let assemble_start = Instant::now();
            ctx.fixed = true;
            ctx.selected = ids.iter().copied().filter(|&id| id < sys.chunks.len()).collect();
            ctx.context = ctx.selected.iter().map(|&id| sys.chunks[id].clone()).collect();
            ctx.retrieval_latency = assemble_start.elapsed();
            QueryPlan::fixed()
        }
    };
    if let Some(budget) = req.budget {
        let rounds =
            if sys.config.use_feedback { sys.config.max_feedback_rounds as u32 } else { 0 };
        ctx.brownout = budget.plan(sys.config.candidates, rounds);
        middleware::record_rungs(ctx.brownout, &mut ctx.trace);
        plan.apply_rung(ctx.brownout);
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
fn run_query<'a>(sys: &'a RagSystem, req: &Request<'a>) -> (QueryCtx<'a>, Duration) {
    let (mut plan, mut ctx) = prepare(sys, req);
    let query_start = Instant::now();
    // A multiple-choice request with no options has nothing to pick from:
    // no stage runs, and `finalize` answers it unanswerable with no read
    // billed, as the reader leg does when it has no context left to try.
    if !req.options.is_some_and(<[String]>::is_empty) {
        run_plan(sys, &mut plan, &mut ctx);
    }
    (ctx, query_start.elapsed())
}

/// Execute one request to its result: the one engine entry point.
pub(crate) fn execute(sys: &RagSystem, req: &Request<'_>) -> QueryResult {
    let (ctx, total) = run_query(sys, req);
    finalize(sys, ctx, total)
}

/// Run `f` with panic isolation: a panic becomes
/// `Err(SageError::Panicked)` and is counted on the fallback counters.
pub(crate) fn caught<T>(sys: &RagSystem, f: impl FnOnce() -> T) -> Result<T, SageError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        sys.counters.record(Fallback::PanicIsolated);
        SageError::from_panic(payload)
    })
}

/// Execute only the prelude (retrieval + rerank), unbudgeted, behind fresh
/// guards: the engine behind [`crate::RagSystem::candidates`]. Under a
/// fault plan its fallbacks fire as a query's would, but the trace is
/// dropped and no counter moves. Histogram stages still record when a hub
/// is attached, but no span trace is kept.
pub(crate) fn run_prelude(sys: &RagSystem, question: &str) -> (Vec<usize>, Vec<RankedChunk>) {
    let guards = Guards::new(&sys.faults);
    let mut ctx = QueryCtx::new(question, None, guards, None, sys.config.min_k);
    run_prelude_slots(sys, &mut sys.resolve_plan(), &mut ctx);
    (ctx.cand_ids, ctx.ranked)
}
