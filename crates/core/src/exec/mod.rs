//! The query executor: one straight-line function runs the paper's online
//! path (Fig. 2) for every request — retrieve, rerank, then up to
//! `max_rounds` rounds of select → read → feedback, then fuse — reading
//! the [`QueryPlan`] the configuration resolves to, rewritten once to the
//! brownout rung the request's budget plans. Every query runs behind its
//! own [`Guards`](sage_resilience::Guards) under the system's fault plan,
//! and each stage takes its own fallback: a failed embed or index search
//! falls back to BM25 in place, a failed read to the second-best context,
//! then to unanswerable. Each stage opens and closes its own telemetry
//! span, histogram sample and ledger entry.
//!
//! Every request enters through `execute` (behind
//! [`crate::RagSystem::answer`], which adds the panic boundary);
//! `run_prelude` serves [`crate::RagSystem::candidates`].

mod batch;
mod plan;
mod stages;

pub use plan::QueryPlan;

use crate::pipeline::{RagSystem, Request};
use crate::QueryResult;
use sage_admission::BrownoutLevel;
use sage_eval::Cost;
use sage_rerank::{gradient_select, RankedChunk, SelectionConfig};
use sage_resilience::{Component, DegradeEvent, DegradeTrace, Fallback, SageError};
use sage_telemetry::Trace;
use stages::{unanswerable, Query, RoundAnswer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A query run to its result, before [`finalize`]: the result, its span
/// trace and its measured latency.
type Ran = (QueryResult, Option<Trace>, Duration);

impl RagSystem {
    /// The query plan this system's configuration resolves to.
    pub(crate) fn resolve_plan(&self) -> QueryPlan {
        QueryPlan::resolve(&self.config, self.retriever.is_dense(), self.scorer.is_some())
    }
}

/// Execute one request to its result: the one engine entry point.
pub(crate) fn execute(sys: &RagSystem, req: &Request<'_>) -> QueryResult {
    finalize(sys, run_query(sys, req))
}

/// Run one request to its result — everything but [`finalize`], which a
/// batch defers so its cross-query effects land in input order. The
/// budget's rung is planned and applied to the plan before any stage runs.
/// A request that names its chunks reads them once: no retrieval,
/// selection or feedback, so no rung either — there is nothing for one to
/// drop.
#[expect(
    clippy::disallowed_methods,
    reason = "the executor measures the query's latency, its retrieval's and a fixed context's assembly for QueryResult and the query histogram; no control flow branches on the readings"
)]
fn run_query(sys: &RagSystem, req: &Request<'_>) -> Ran {
    let mut q = Query::new(sys, req.question, req.options, true);
    let mut plan = sys.resolve_plan();
    // A fixed context's assembly time is its retrieval latency.
    let fixed = req.chunks.map(|ids| {
        let start = Instant::now();
        let selected: Vec<usize> =
            ids.iter().copied().filter(|&id| id < sys.chunks.len()).collect();
        let context = q.context(&selected);
        (selected, context, start.elapsed())
    });
    let mut brownout = BrownoutLevel::None;
    if let Some(budget) = req.budget.filter(|_| fixed.is_none()) {
        let rounds =
            if sys.config.use_feedback { sys.config.max_feedback_rounds as u32 } else { 0 };
        brownout = budget.plan(sys.config.candidates, rounds);
        record_rungs(brownout, &mut q.trace);
        plan.apply_rung(brownout);
    }

    let start = Instant::now();
    let result = if req.options.is_some_and(<[String]>::is_empty) {
        // A multiple-choice request with no options has nothing to pick
        // from: no stage runs, and it is answered unanswerable with no
        // read billed, as the reader leg does when no context is left.
        None
    } else if let Some((selected, context, latency)) = &fixed {
        q.read(None, selected, context, &[], &[])
            .map(|r| QueryResult::single_read(r.answer, r.picked, r.selected, *latency))
    } else {
        let prelude_start = Instant::now();
        let (cand_ids, ranked) = q.prelude(&plan);
        let retrieval_latency = prelude_start.elapsed();
        Some(run_rounds(&mut q, &plan, &cand_ids, &ranked, retrieval_latency, brownout))
    };
    let total = start.elapsed();

    let mut result = result.unwrap_or_else(|| {
        // The unanswerable verdict's latency is the virtual backoff spent
        // reaching it.
        let latency = fixed.map_or(Duration::ZERO, |(.., latency)| latency);
        QueryResult::single_read(unanswerable(q.trace.total_delay()), None, Vec::new(), latency)
    });
    result.degraded = q.trace;
    (result, q.qt, total)
}

/// Up to `plan.max_rounds` rounds of select → read → feedback over the
/// ranked candidates, fused into the result. The loop stops on a stable
/// selection, an exhausted reader, a feedback score at threshold, or after
/// the first round when the plan does not judge.
fn run_rounds(
    q: &mut Query<'_>,
    plan: &QueryPlan,
    cand_ids: &[usize],
    ranked: &[RankedChunk],
    retrieval_latency: Duration,
    brownout: BrownoutLevel,
) -> QueryResult {
    let cfg = &q.sys.config;
    let mut min_k = cfg.min_k;
    let mut last_selection: Option<Vec<usize>> = None;
    let mut cost = Cost::zero();
    let (mut answer_latency, mut feedback_latency) = (Duration::ZERO, Duration::ZERO);
    let mut feedback_rounds = 0;
    // The best judged round by feedback score, or the one unjudged round.
    let mut best: Option<(Option<u8>, RoundAnswer)> = None;
    for round in 0..plan.max_rounds {
        let positions: Vec<usize> = if plan.gradient {
            let selection = SelectionConfig {
                min_k,
                gradient: cfg.gradient,
                max_k: cfg.candidates,
                ..SelectionConfig::default()
            };
            gradient_select(ranked, selection).iter().map(|r| r.index).collect()
        } else {
            ranked.iter().take(min_k.max(1)).map(|r| r.index).collect()
        };
        // The reader is deterministic: re-running with an identical context
        // reproduces the same answer and judgement, so a round whose
        // adjusted min_k selects the same chunks is pure token waste.
        if last_selection.as_ref() == Some(&positions) {
            break;
        }
        let selected: Vec<usize> = positions.iter().map(|&pos| cand_ids[pos]).collect();
        last_selection = Some(positions);
        let context = q.context(&selected);
        // A reader that exhausted its contexts would fail the same way in
        // every further round (fault decisions are keyed on the question):
        // an earlier round's answer, or unanswerable, stands.
        let Some(read) = q.read(Some(round), &selected, &context, cand_ids, ranked) else {
            break;
        };
        cost.merge(read.answer.cost);
        answer_latency += read.answer.latency;
        if !plan.feedback {
            // Without a score there is nothing to compare further rounds by.
            best = Some((None, read));
            break;
        }
        let fb = q.feedback(&read, &selected, &context);
        feedback_rounds += 1;
        cost.merge(fb.cost);
        feedback_latency += fb.latency;
        if best.as_ref().is_none_or(|(score, _)| *score < Some(fb.score)) {
            best = Some((Some(fb.score), read));
        }
        if fb.score >= cfg.feedback_threshold {
            break;
        }
        // Adjust min_k per the judge's context assessment (Figure 2 (C)
        // step 6): -1 drops a chunk, +1 requests one more.
        let next = min_k as i64 + i64::from(fb.adjustment);
        min_k = next.clamp(1, cfg.candidates as i64) as usize;
    }
    let (feedback_score, answer, picked_option, selected) = match best {
        Some((score, r)) => (score, r.answer, r.picked, r.selected),
        // No round produced an answer: the reader exhausted its fallbacks,
        // or the plan runs zero rounds.
        None => (None, unanswerable(q.trace.total_delay()), None, Vec::new()),
    };
    QueryResult {
        answer,
        picked_option,
        selected,
        cost,
        feedback_rounds,
        retrieval_latency,
        answer_latency,
        feedback_latency,
        feedback_score,
        degraded: DegradeTrace::new(),
        brownout,
    }
}

/// Absorb the result's degradation trace into the system's fallback
/// counters, and flush the query's telemetry: degrade events folded into
/// the span trace, the query histogram, the trace ring. On a clean
/// unobserved query each step is a no-op.
fn finalize(sys: &RagSystem, (result, qt, total): Ran) -> QueryResult {
    sys.counters.absorb(&result.degraded);
    if let (Some(hub), Some(mut t)) = (&sys.telemetry, qt) {
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

/// Record every ladder step up to the planned `level` — the ladder is
/// cumulative, so a query planned at `FlatTopK` reports both rungs, in
/// ladder order: all of those mitigations are in effect.
///
/// The single recording point for a brownout rung: the degradation-trace
/// entry (the same trace the fault-driven fallback chain writes to, so one
/// report explains both) and the `sage_brownout_total{stage=...}` counter
/// bump happen here and nowhere else. The per-query telemetry span event
/// is derived from the trace entry in [`finalize`], so all three sinks
/// stay reconciled by construction.
///
/// Rungs reuse the existing [`Component`] set — the resilience layer sizes
/// its per-query guard and fault-plan arrays by `Component::COUNT`, and
/// budget pressure is not a component fault: feedback drops attribute to
/// the `Reader` (the calls being skipped), flat selection to `IndexSearch`
/// (the stage whose order the flat prefix preserves).
fn record_rungs(level: BrownoutLevel, trace: &mut DegradeTrace) {
    for rung in BrownoutLevel::ALL.into_iter().filter(|&r| r <= level) {
        let (component, fallback, stage) = match rung {
            BrownoutLevel::DropFeedback => {
                (Component::Reader, Fallback::BrownoutDropFeedback, "feedback")
            }
            BrownoutLevel::FlatTopK => {
                (Component::IndexSearch, Fallback::BrownoutFlatTopK, "selection")
            }
            // `None` is not a rung; nothing to record.
            BrownoutLevel::None => continue,
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
    Query::new(sys, question, None, false).prelude(&sys.resolve_plan())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_admission::QueryBudget;

    #[test]
    fn a_jump_reports_every_intermediate_step() {
        // A deadline below one read plans FlatTopK straight from None;
        // both ladder steps must land in the trace, in ladder order.
        let level = QueryBudget::new(Duration::from_millis(100), u64::MAX).plan(20, 3);
        assert_eq!(level, BrownoutLevel::FlatTopK);
        let mut trace = DegradeTrace::new();
        record_rungs(level, &mut trace);
        let steps: Vec<u8> =
            trace.events.iter().filter_map(|e| e.fallback.brownout_step()).collect();
        assert_eq!(steps, vec![1, 2]);
        // A query planned at full fidelity reports nothing.
        let mut trace = DegradeTrace::new();
        record_rungs(QueryBudget::generous().plan(20, 3), &mut trace);
        assert!(trace.is_clean());
    }
}
