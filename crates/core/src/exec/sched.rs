//! The cross-query slot scheduler: many in-flight queries advance through
//! their plans one slot at a time, and same-stage ready slots coalesce
//! into cross-query batch ops.
//!
//! Every query is a [`QueryRun`] — a resumable cursor over its
//! [`QueryPlan`] that executes exactly one slot (the full middleware
//! sandwich) per [`QueryRun::advance`]. The scheduler keeps the ready-set
//! (each live run exposes exactly one ready slot), batches its ready
//! embed slots, and assigns slots to workers with a *deterministic* policy:
//! seeded round-robin keyed on `(query_seq, slot_index)` — never
//! wall-clock, never thread id — so the schedule replays identically at
//! any machine speed and any worker count.
//!
//! ## Why batched == sequential, byte for byte
//!
//! Three invariants make the interleaving invisible in the outputs:
//!
//! 1. **Stages are pure over their context.** All query state lives on
//!    the per-query [`QueryCtx`] blackboard; the models are seeded per
//!    call, so a slot's result is a function of `(ctx, sys)` alone and
//!    cannot observe which worker ran it, when, or what ran beside it.
//! 2. **Batch surfaces are element-wise.** The coalesced paths
//!    (`EmbedBatch`, `RerankBatch`, `LlmBatch`) contractually return
//!    exactly what the single calls return, and the single calls *are*
//!    batches of one — one code path, no drift.
//! 3. **Shared state is commutative.** Everything cross-query is a sum
//!    (telemetry ledger and histograms, resilience counters, process
//!    metrics), so accumulation order cannot reach any output.
//!
//! Panic isolation is per slot: a stage panic fails its own query with
//! `SageError::Panicked` (counted on the resilience ledger, exactly like
//! the sequential `execute_caught` boundary) while every other in-flight
//! query proceeds.

// sage-lint: allow-file(no-wallclock) - the scheduler owns the query/prelude latency and worker-busy measurement the executor previously inlined in mod.rs; no control flow branches on the readings

use super::plan::{Loc, QueryPlan, StageOp};
use super::stages::dispatch;
use super::{exec_slot, finalize, Flow, QueryCtx};
use crate::pipeline::RagSystem;
use crate::QueryResult;
use sage_resilience::{Fallback, SageError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Where a run's single ready slot sits in its plan.
#[derive(Debug, Clone, Copy)]
enum Pos {
    /// Next slot is `prelude[i]`.
    Prelude(usize),
    /// Next slot is `round[slot]` of feedback round `round`.
    Round { round: usize, slot: usize },
    /// All rounds decided; the terminal fuse is pending.
    Fuse,
    /// Fused: the context holds the result.
    Done,
}

/// One in-flight query: plan + context + cursor. The stepper reproduces
/// `run_plan`'s control flow exactly — same slot order, same brownout
/// re-checks of the (possibly rewritten) plan shape after every slot —
/// just resumable, so the scheduler can interleave many runs.
pub(crate) struct QueryRun<'a> {
    plan: QueryPlan,
    ctx: QueryCtx<'a>,
    pos: Pos,
    /// Wall-clock anchor for the whole query (telemetry histogram input).
    started: Instant,
    /// Wall-clock anchor for the prelude window (retrieval latency).
    prelude_start: Option<Instant>,
    /// Slots executed so far — the `slot_index` half of the worker
    /// assignment key.
    slots_run: usize,
}

impl<'a> QueryRun<'a> {
    /// Begin a run with an explicit wall-clock anchor (the fixed-context
    /// path starts its clock before context assembly).
    pub(crate) fn start_at(plan: QueryPlan, ctx: QueryCtx<'a>, started: Instant) -> Self {
        let pos =
            if plan.prelude.is_empty() { Self::round_entry(&plan) } else { Pos::Prelude(0) };
        QueryRun { plan, ctx, pos, started, prelude_start: None, slots_run: 0 }
    }

    /// Begin a run, clock starting now.
    pub(crate) fn start(plan: QueryPlan, ctx: QueryCtx<'a>) -> Self {
        Self::start_at(plan, ctx, Instant::now())
    }

    /// Entry position of the round section (straight to fuse when the
    /// plan carries no rounds).
    fn round_entry(plan: &QueryPlan) -> Pos {
        if plan.max_rounds == 0 {
            Pos::Fuse
        } else {
            Pos::Round { round: 0, slot: 0 }
        }
    }

    /// Whether the run has fused.
    pub(crate) fn done(&self) -> bool {
        matches!(self.pos, Pos::Done)
    }

    /// The stage op the ready slot would execute — the coalescing key.
    pub(crate) fn next_op(&self) -> StageOp {
        match self.pos {
            Pos::Prelude(i) => self.plan.get(Loc::Prelude(i)),
            Pos::Round { slot, .. } if slot < self.plan.round.len() => {
                self.plan.get(Loc::Round(slot))
            }
            _ => StageOp::Fuse,
        }
    }

    /// Round-completion bookkeeping, verbatim from the sequential loop: a
    /// completed round with no judging left in the plan (feedback off, or
    /// browned out by a rewrite) is final — without a score there is
    /// nothing to compare further rounds by.
    fn complete_round(&mut self, round: usize) {
        if !self.plan.has_feedback() {
            if self.ctx.best.is_none() {
                self.ctx.unjudged = self.ctx.current.take();
            }
            self.pos = Pos::Fuse;
        } else if round + 1 < self.plan.max_rounds {
            self.pos = Pos::Round { round: round + 1, slot: 0 };
        } else {
            self.pos = Pos::Fuse;
        }
    }

    /// Execute the ready slot (full middleware sandwich) and advance the
    /// cursor. One call, one slot — the scheduler's unit of work.
    pub(crate) fn advance(&mut self, sys: &RagSystem) {
        self.slots_run += 1;
        match self.pos {
            Pos::Prelude(i) => {
                if self.prelude_start.is_none() {
                    self.prelude_start = Some(Instant::now());
                }
                let flow = exec_slot(sys, &mut self.plan, &mut self.ctx, Loc::Prelude(i));
                if flow == Flow::FallbackToBm25 {
                    self.plan.on_bm25_fallback(i + 1);
                }
                // Re-check the length each step: fallback splices may have
                // rewritten the remaining prelude.
                if i + 1 < self.plan.prelude.len() {
                    self.pos = Pos::Prelude(i + 1);
                } else {
                    if let Some(t0) = self.prelude_start {
                        self.ctx.retrieval_latency = t0.elapsed();
                    }
                    self.pos = Self::round_entry(&self.plan);
                }
            }
            Pos::Round { round, slot } => {
                if slot == 0 {
                    self.ctx.round = round;
                }
                if slot >= self.plan.round.len() {
                    // The round vanished under a brownout rewrite before
                    // any of its slots ran: only completion bookkeeping.
                    self.complete_round(round);
                    return;
                }
                let flow = exec_slot(sys, &mut self.plan, &mut self.ctx, Loc::Round(slot));
                if flow == Flow::Done {
                    // Decided: skip the remaining round slots and fuse.
                    self.pos = Pos::Fuse;
                } else if slot + 1 < self.plan.round.len() {
                    self.pos = Pos::Round { round, slot: slot + 1 };
                } else {
                    self.complete_round(round);
                }
            }
            Pos::Fuse => {
                // The terminal fuse runs bare (no middleware), as in the
                // sequential loop.
                dispatch(StageOp::Fuse).run(sys, &mut self.ctx, StageOp::Fuse);
                self.pos = Pos::Done;
            }
            Pos::Done => {}
        }
    }

    /// Finalize the fused run into its result (degrade trace, counters,
    /// telemetry flush).
    pub(crate) fn finish(self, sys: &RagSystem) -> QueryResult {
        finalize(sys, self.ctx, self.started.elapsed())
    }
}

/// Drive one run to completion on the caller's thread: the single-query
/// path is a batch of one through the same stepper the scheduler uses.
pub(crate) fn drive(sys: &RagSystem, plan: QueryPlan, ctx: QueryCtx<'_>) -> QueryResult {
    drive_run(sys, QueryRun::start(plan, ctx))
}

/// [`drive`] with a caller-owned start anchor.
pub(crate) fn drive_from(
    sys: &RagSystem,
    plan: QueryPlan,
    ctx: QueryCtx<'_>,
    started: Instant,
) -> QueryResult {
    drive_run(sys, QueryRun::start_at(plan, ctx, started))
}

fn drive_run(sys: &RagSystem, mut run: QueryRun<'_>) -> QueryResult {
    while !run.done() {
        run.advance(sys);
    }
    run.finish(sys)
}

/// Drive a run through its prelude slots (retrieval + rerank) only and
/// hand back the context they filled.
pub(crate) fn drive_prelude<'a>(
    sys: &RagSystem,
    plan: QueryPlan,
    ctx: QueryCtx<'a>,
) -> QueryCtx<'a> {
    let mut run = QueryRun::start(plan, ctx);
    while matches!(run.pos, Pos::Prelude(_)) {
        run.advance(sys);
    }
    run.ctx
}

/// The seed of the deterministic worker-assignment policy. A fixed
/// constant, so a batch's schedule is a pure function of `(batch size,
/// worker count)` — replayable across processes and runs.
const SCHED_SEED: u64 = 0x5A9E_0001;

/// Deterministic worker assignment: seeded round-robin keyed on
/// `(query_seq, slot_index)`. The slot index rotates the round-robin
/// origin through a mixed seed, so consecutive queries spread evenly
/// within every tick while the striping varies across ticks — and the
/// assignment stays a pure function of its key (never wall-clock, never
/// thread id).
pub(crate) fn worker_of(seed: u64, query_seq: usize, slot_index: usize, workers: usize) -> usize {
    if workers <= 1 {
        return 0;
    }
    let mut x = seed ^ (slot_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (query_seq + x as usize % workers) % workers
}

/// Convert a caught panic into the structured per-query error, counted on
/// the resilience ledger — shared with the sequential boundary
/// ([`super::execute_caught`]).
pub(super) fn panic_error(sys: &RagSystem, payload: Box<dyn std::any::Any + Send>) -> SageError {
    let err = SageError::from_panic(payload);
    if let Some(state) = &sys.resilience {
        state.counters.record(Fallback::PanicIsolated);
    }
    err
}

/// Run many open-ended questions through the scheduler with `workers`
/// real threads. Results align with input order and are byte-identical
/// (in every deterministic field) to a sequential loop over the same
/// questions, at any worker count.
pub(crate) fn run_interleaved<'a>(
    sys: &'a RagSystem,
    questions: &[&'a str],
    workers: usize,
) -> Vec<Result<QueryResult, SageError>> {
    let n = questions.len();
    if n == 0 {
        return Vec::new();
    }
    // Degenerate worker counts: zero clamps to one, and more workers than
    // queries would only spawn idle threads, so cap at the batch length.
    let workers = workers.clamp(1, n);

    // Admit every question in input order, under the same panic boundary
    // the sequential path puts around setup.
    let mut out: Vec<Option<Result<QueryResult, SageError>>> = (0..n).map(|_| None).collect();
    let mut runs: Vec<Option<QueryRun<'a>>> = Vec::with_capacity(n);
    for (i, &question) in questions.iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| {
            let (plan, ctx) = super::prepare(sys, question, None, None);
            QueryRun::start(plan, ctx)
        })) {
            Ok(run) => runs.push(Some(run)),
            Err(payload) => {
                out[i] = Some(Err(panic_error(sys, payload)));
                runs.push(None);
            }
        }
    }

    loop {
        let live: Vec<usize> = (0..n).filter(|&i| runs[i].is_some()).collect();
        if live.is_empty() {
            break;
        }
        coalesce_embeds(sys, &mut runs, &live);

        if workers == 1 {
            for &i in &live {
                advance_caught(sys, &mut runs[i], &mut out[i]);
            }
        } else {
            // Real threads: each worker steps its assigned runs once, in
            // query order. Runs move into the worker and back; a panicking
            // slot fails only its own query.
            let mut buckets: Vec<Vec<(usize, QueryRun<'a>)>> =
                (0..workers).map(|_| Vec::new()).collect();
            for &i in &live {
                if let Some(run) = runs[i].take() {
                    buckets[worker_of(SCHED_SEED, i, run.slots_run, workers)].push((i, run));
                }
            }
            std::thread::scope(|s| {
                let handles: Vec<_> = buckets
                    .into_iter()
                    .map(|bucket| {
                        s.spawn(move || {
                            bucket
                                .into_iter()
                                .map(|(i, mut run)| {
                                    let caught =
                                        catch_unwind(AssertUnwindSafe(|| run.advance(sys)));
                                    (i, run, caught.err())
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for h in handles {
                    // A worker cannot unwind past the per-slot boundary,
                    // but degrade gracefully if one somehow does: its
                    // queries stay unfilled and surface as structured
                    // errors below.
                    if let Ok(stepped) = h.join() {
                        for (i, run, panicked) in stepped {
                            match panicked {
                                None => runs[i] = Some(run),
                                Some(payload) => {
                                    out[i] = Some(Err(panic_error(sys, payload)));
                                }
                            }
                        }
                    }
                }
            });
        }

        // Retire fused queries in input order, so cross-query finalize
        // effects (trace ring pushes) are deterministic.
        for &i in &live {
            if runs[i].as_ref().is_some_and(QueryRun::done) {
                if let Some(run) = runs[i].take() {
                    match catch_unwind(AssertUnwindSafe(|| run.finish(sys))) {
                        Ok(result) => out[i] = Some(Ok(result)),
                        Err(payload) => out[i] = Some(Err(panic_error(sys, payload))),
                    }
                }
            }
        }
    }

    out.into_iter()
        .map(|r| {
            r.unwrap_or(Err(SageError::Panicked {
                detail: "answer worker died before reporting".to_string(),
            }))
        })
        .collect()
}

/// Step one run behind the per-slot panic boundary; a panic retires the
/// query with a structured error.
fn advance_caught<'a>(
    sys: &RagSystem,
    slot: &mut Option<QueryRun<'a>>,
    out: &mut Option<Result<QueryResult, SageError>>,
) {
    let Some(run) = slot.as_mut() else { return };
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run.advance(sys))) {
        *out = Some(Err(panic_error(sys, payload)));
        *slot = None;
    }
}

/// Coalesce the tick's ready embed slots into one `EmbedBatch` call when
/// no fault plan is armed (injection is keyed per question *inside* the
/// guard, so guarded runs keep the per-slot path — which is itself a
/// batch of one at the model layer). Members keep query order.
fn coalesce_embeds(sys: &RagSystem, runs: &mut [Option<QueryRun<'_>>], live: &[usize]) {
    if sys.resilience.is_some() {
        return;
    }
    let ready = |i: &usize| {
        runs[*i].as_ref().is_some_and(|run| matches!(run.next_op(), StageOp::Embed))
    };
    let members: Vec<usize> = live.iter().copied().filter(ready).collect();
    if members.len() < 2 {
        return;
    }
    let texts: Vec<&str> =
        members.iter().filter_map(|&i| runs[i].as_ref().map(|run| run.ctx.question)).collect();
    if let Some(vecs) = sys.retriever.embed_query_batch(&texts) {
        for (&i, v) in members.iter().zip(vecs) {
            if let Some(run) = runs[i].as_mut() {
                // Identical to what the slot would compute, by the
                // `EmbedBatch` element-wise contract (see [`super::stages`]).
                run.ctx.prefetched_query_vec = Some(v);
            }
        }
    }
}

/// Render the deterministic schedule `queries` identical in-flight copies
/// of `plan` would execute: per tick, the coalesced same-stage group and
/// the seeded round-robin worker assignment. Static resolution — no
/// models, no corpus — so it shows the first feedback round and notes
/// where runtime divergence (early exits, brownout rewrites) begins.
pub fn render_schedule(plan: &QueryPlan, queries: usize, workers: usize) -> String {
    use std::fmt::Write as _;
    let queries = queries.max(1);
    let workers = workers.clamp(1, queries);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "schedule: {queries} in-flight quer{} x {workers} worker{} (seeded round-robin, seed {SCHED_SEED})",
        if queries == 1 { "y" } else { "ies" },
        if workers == 1 { "" } else { "s" },
    );
    // The static slot sequence every copy of the plan executes: prelude,
    // first round, terminal fuse.
    let mut ops: Vec<StageOp> = plan.prelude.clone();
    ops.extend(plan.round.iter().copied());
    ops.push(StageOp::Fuse);
    for (tick, op) in ops.iter().enumerate() {
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for q in 0..queries {
            buckets[worker_of(SCHED_SEED, q, tick, workers)].push(q);
        }
        let lanes: Vec<String> = buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(w, b)| {
                let qs: Vec<String> = b.iter().map(|q| format!("q{q}")).collect();
                format!("w{w}[{}]", qs.join(" "))
            })
            .collect();
        let _ = writeln!(s, "  tick {tick:2}: {:<18} x{queries} -> {}", op.name(), lanes.join(" "));
    }
    if plan.max_rounds > 1 && plan.round.iter().any(|op| matches!(op, StageOp::Feedback)) {
        let _ = writeln!(
            s,
            "  (round slots repeat up to {} feedback rounds; Done exits a query early, \
             after which the survivors re-coalesce)",
            plan.max_rounds
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_assignment_is_deterministic_and_balanced() {
        // Pure function of the key.
        for seed in [0u64, 42, 0xDEAD] {
            for q in 0..16 {
                for slot in 0..8 {
                    let a = worker_of(seed, q, slot, 4);
                    assert_eq!(a, worker_of(seed, q, slot, 4));
                    assert!(a < 4);
                }
            }
        }
        // Round-robin within a tick: any `workers` consecutive query seqs
        // land on `workers` distinct workers.
        for slot in 0..8 {
            let lanes: Vec<usize> = (0..4).map(|q| worker_of(7, q, slot, 4)).collect();
            let mut sorted = lanes.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "tick {slot} not a permutation: {lanes:?}");
        }
        // Degenerate counts.
        assert_eq!(worker_of(1, 5, 3, 1), 0);
    }

    #[test]
    fn schedule_rendering_is_deterministic() {
        let config = crate::config::SageConfig::sage();
        let plan = QueryPlan::resolve(&config, true, true);
        let a = render_schedule(&plan, 4, 2);
        let b = render_schedule(&plan, 4, 2);
        assert_eq!(a, b);
        assert!(a.contains("4 in-flight queries"), "{a}");
        assert!(a.contains("embed"), "{a}");
        assert!(a.contains("fuse"), "{a}");
        // Workers clamp to the in-flight count.
        let c = render_schedule(&plan, 2, 8);
        assert!(c.contains("x 2 worker"), "{c}");
    }
}
