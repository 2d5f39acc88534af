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

// sage-lint: allow-file(no-wallclock) - the executor owns the query/prelude latency measurement previously inlined in pipeline.rs; no control flow branches on the readings

mod batch;
mod ctx;
mod middleware;
mod plan;
pub(crate) mod scatter;
mod sched;
mod stages;

pub(crate) use ctx::QueryCtx;
pub use plan::{Fanout, QueryPlan, RerankMode, SelectMode, StageOp};
pub use sched::render_schedule;
use plan::Loc;
use stages::dispatch;

use crate::brownout::BrownoutCtl;
use crate::pipeline::RagSystem;
use crate::resilience::QueryGuards;
use crate::QueryResult;
use sage_admission::{CostModel, PlanStage, QueryBudget};
use sage_rerank::RankedChunk;
use sage_resilience::SageError;
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
    let flow = dispatch(op).run(sys, ctx, op);
    middleware::tel_after(sys, ctx, op, flow);
    if let Some(level) = middleware::budget_after(ctx, op, flow) {
        plan.apply_rung(level);
    }
    flow
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

/// Resolve the plan and assemble the fresh context for one query — the
/// shared setup behind [`execute`] and the scheduler's admission step:
/// plan resolution (with shard fan-out), guard arming, trace opening, and
/// the brownout admission gate (replan once before any work so a hopeless
/// budget walks the ladder immediately).
pub(crate) fn prepare<'a>(
    sys: &'a RagSystem,
    question: &'a str,
    options: Option<&'a [String]>,
    budget: Option<QueryBudget>,
) -> (QueryPlan, QueryCtx<'a>) {
    let mut plan = sys.resolve_plan();
    let guards = sys.resilience.as_ref().map(QueryGuards::new);
    let qt = sys.telemetry.as_ref().map(|_| Trace::start(question));
    let bctl = budget.map(|b| {
        BrownoutCtl::new(
            b,
            CostModel::default(),
            sys.config.candidates,
            if sys.config.use_feedback { sys.config.max_feedback_rounds as u32 } else { 0 },
        )
    });
    let mut ctx = QueryCtx::new(question, options, guards, qt, bctl, sys.config.min_k);
    if let Some(ctl) = ctx.bctl.as_mut() {
        let rounds = ctl.rounds_left(0);
        let level = ctl.checkpoint(PlanStage::Start, rounds, &mut ctx.trace);
        plan.apply_rung(level);
    }
    (plan, ctx)
}

/// Execute the full query plan for `question`: the one entry point behind
/// `answer_open`, `answer_multiple_choice`, and the `*_budgeted` pair. A
/// batch of one through the slot scheduler's stepper — the same code that
/// runs interleaved cross-query batches.
pub(crate) fn execute(
    sys: &RagSystem,
    question: &str,
    options: Option<&[String]>,
    budget: Option<QueryBudget>,
) -> QueryResult {
    let (plan, ctx) = prepare(sys, question, options, budget);
    sched::drive(sys, plan, ctx)
}

/// [`execute`] with panic isolation: a panic anywhere in the pipeline
/// becomes `Err(SageError::Panicked)` and is counted on the resilience
/// ledger.
pub(crate) fn execute_caught(
    sys: &RagSystem,
    question: &str,
    options: Option<&[String]>,
    budget: Option<QueryBudget>,
) -> Result<QueryResult, SageError> {
    catch_unwind(AssertUnwindSafe(|| execute(sys, question, options, budget)))
        .map_err(|payload| sched::panic_error(sys, payload))
}

/// Execute the fixed-context plan: one generation call over explicit
/// chunk ids (no retrieval, no selection, no feedback loop).
pub(crate) fn execute_fixed(
    sys: &RagSystem,
    question: &str,
    chunk_ids: &[usize],
    options: Option<&[String]>,
) -> QueryResult {
    let plan = QueryPlan::fixed();
    let qt = sys.telemetry.as_ref().map(|_| Trace::start(question));
    let mut ctx = QueryCtx::new(question, options, None, qt, None, sys.config.min_k);
    ctx.fixed = true;
    let query_start = Instant::now();
    // No retrieval runs on this path; the "retrieval" latency is the
    // (real, measured) context-assembly time rather than a zero
    // placeholder.
    let assemble_start = Instant::now();
    ctx.selected = chunk_ids.to_vec();
    ctx.context = chunk_ids.iter().map(|&id| sys.chunks[id].clone()).collect();
    ctx.retrieval_latency = assemble_start.elapsed();
    sched::drive_from(sys, plan, ctx, query_start)
}

/// Execute only the prelude (retrieval + rerank) unguarded and unbudgeted:
/// the engine behind [`crate::RagSystem::candidates`] and
/// [`crate::RagSystem::rerank_scores`]. Histogram stages still record when
/// a hub is attached, but no span trace is kept.
pub(crate) fn run_prelude(sys: &RagSystem, question: &str) -> (Vec<usize>, Vec<RankedChunk>) {
    let ctx = QueryCtx::new(question, None, None, None, None, sys.config.min_k);
    let ctx = sched::drive_prelude(sys, sys.resolve_plan(), ctx);
    (ctx.cand_ids, ctx.ranked)
}
