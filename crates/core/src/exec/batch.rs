//! Batched execution over the slot scheduler: many questions run
//! *interleaved* — each live query advances one plan slot per scheduler
//! tick, same-stage ready slots coalesce into cross-query batch ops, and
//! the admission-queue wave protocol feeds the ready-set. Results are
//! byte-identical (in every deterministic field) to a sequential loop of
//! single-query calls, at any worker count and any batch size.

use super::sched::{self, BatchSpec, ScheduleStats};
use crate::pipeline::RagSystem;
use crate::QueryResult;
use sage_admission::{Decision, Priority};
use sage_resilience::{Fallback, SageError};

/// The seed of the scheduler's deterministic worker-assignment policy.
/// A fixed constant, so a batch's schedule is a pure function of
/// `(batch size, worker count)` — replayable across processes and runs.
const SCHED_SEED: u64 = 0x5A9E_0001;

/// Re-raise a per-question failure on the caller's thread — the
/// pre-resilience [`RagSystem::answer_batch`] contract, collapsed into
/// one place so the panic-on-serving exception is auditable at a single
/// suppression. [`RagSystem::try_answer_batch`] is the isolating
/// alternative: it surfaces the same failures as per-question `Err`
/// slots instead.
fn reraise(result: Result<QueryResult, SageError>) -> QueryResult {
    match result {
        Ok(r) => r,
        // sage-lint: allow(no-panic-serving) - documented pre-resilience contract: answer_batch re-raises per-question failures; try_answer_batch is the isolating alternative
        Err(e) => panic!("question failed: {e}"),
    }
}

impl RagSystem {
    /// Answer many open-ended questions with `workers` scheduler threads.
    /// Results align with the input order; answers are identical to serial
    /// calls (stages are deterministic per question and the coalesced
    /// batch surfaces are element-wise). `workers == 0` is clamped to 1,
    /// and `workers > questions.len()` to the question count.
    ///
    /// A question whose pipeline panics aborts the whole batch by
    /// re-raising the panic on the caller's thread (the pre-resilience
    /// contract, see [`reraise`]) — and when admission control is enabled,
    /// a shed question is re-raised the same way. Use
    /// [`RagSystem::try_answer_batch`] to get per-question `Err` slots
    /// instead.
    pub fn answer_batch(&self, questions: &[String], workers: usize) -> Vec<QueryResult> {
        self.try_answer_batch(questions, workers).into_iter().map(reraise).collect()
    }

    /// [`RagSystem::answer_batch`] with per-question panic isolation: a
    /// panic anywhere in one question's pipeline (an injected `panic`
    /// fault, a bug) is caught at the scheduler's per-slot boundary and
    /// surfaced as `Err(SageError::Panicked)` in that question's slot,
    /// while every other in-flight question completes normally. Results
    /// align with input order; `workers == 0` is clamped to 1.
    ///
    /// With admission control enabled ([`RagSystem::enable_admission`]),
    /// questions are offered to the queue in input order as
    /// [`Priority::Batch`] work and processed in waves of at most
    /// `workers` in-flight slots (released as each wave completes). A shed
    /// question's slot is `Err(SageError::Shed)`; sheds are deterministic
    /// for a fixed queue state, seed, and submission order.
    pub fn try_answer_batch(
        &self,
        questions: &[String],
        workers: usize,
    ) -> Vec<Result<QueryResult, SageError>> {
        if questions.is_empty() {
            return Vec::new();
        }
        let workers = workers.clamp(1, questions.len());
        match &self.admission {
            None => {
                let specs: Vec<BatchSpec<'_>> =
                    questions.iter().map(|q| BatchSpec::open(q)).collect();
                sched::run_interleaved(self, &specs, workers, SCHED_SEED)
            }
            Some(m) => {
                let mut results: Vec<Option<Result<QueryResult, SageError>>> =
                    (0..questions.len()).map(|_| None).collect();
                let mut offered = 0usize;
                while offered < questions.len() {
                    // Admit the next wave under one lock hold: up to
                    // `workers` in-flight slots, so at zero external
                    // pressure a batch never lifts occupancy into the
                    // early-drop ramp.
                    let mut wave: Vec<(usize, &String)> = Vec::new();
                    {
                        let mut q = Self::lock_queue(m);
                        while offered < questions.len() && wave.len() < workers {
                            let (i, question) = (offered, &questions[offered]);
                            match q.admit(Priority::Batch) {
                                Decision::Admitted => wave.push((i, question)),
                                Decision::Shed(_) => {
                                    sage_telemetry::metrics::SHED_TOTAL
                                        .inc(Priority::Batch.idx());
                                    if let Some(state) = &self.resilience {
                                        state.counters.record(Fallback::Shed);
                                    }
                                    results[i] = Some(Err(SageError::Shed {
                                        class: Priority::Batch.label(),
                                    }));
                                }
                            }
                            offered += 1;
                        }
                    }
                    let specs: Vec<BatchSpec<'_>> =
                        wave.iter().map(|&(_, q)| BatchSpec::open(q)).collect();
                    let wave_results =
                        sched::run_interleaved(self, &specs, workers, SCHED_SEED);
                    for ((i, _), r) in wave.iter().zip(wave_results) {
                        results[*i] = Some(r);
                    }
                    let mut q = Self::lock_queue(m);
                    for _ in 0..wave.len() {
                        q.release();
                    }
                }
                results
                    .into_iter()
                    .map(|r| {
                        r.unwrap_or(Err(SageError::Panicked {
                            detail: "answer worker died before reporting".to_string(),
                        }))
                    })
                    .collect()
            }
        }
    }

    /// [`RagSystem::try_answer_batch`] in the scheduler's profiling mode:
    /// slots execute sequentially (results unchanged) while each measured
    /// slot duration is attributed to the worker the deterministic policy
    /// assigned — so [`ScheduleStats::critical_path`] models the batch's
    /// parallel makespan on any host, including single-core CI. Bypasses
    /// admission (the bench measures the executor, not the queue).
    pub fn profile_batch(
        &self,
        questions: &[String],
        workers: usize,
    ) -> (Vec<Result<QueryResult, SageError>>, ScheduleStats) {
        let specs: Vec<BatchSpec<'_>> = questions.iter().map(|q| BatchSpec::open(q)).collect();
        sched::profile_interleaved(self, &specs, workers, SCHED_SEED)
    }

    /// Render the deterministic cross-query schedule this system's
    /// resolved plan yields for `queries` in-flight questions on
    /// `workers` workers (the engine behind `sage explain --concurrency`).
    pub fn explain_schedule(&self, queries: usize, workers: usize) -> String {
        sched::render_schedule(&self.resolve_plan(), queries, workers, SCHED_SEED)
    }
}
