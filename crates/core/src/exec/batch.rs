//! Batched execution: a batch is N questions on W threads. Worker `w`
//! answers questions `w, w + W, …` to completion — the assignment is a
//! pure function of the index — and the admission-queue wave protocol
//! gates what each fan-out receives. Results are byte-identical (in every
//! deterministic field) to a sequential loop of single-query calls, at any
//! worker count and any batch size.

use super::{caught, finalize, run_query};
use crate::pipeline::RagSystem;
use crate::QueryResult;
use sage_admission::{Decision, Priority};
use sage_resilience::{Fallback, SageError};

/// The structured error of a slot no worker reported on.
fn worker_died() -> SageError {
    SageError::Panicked { detail: "answer worker died before reporting".to_string() }
}

/// Answer `questions` on `workers` scoped threads, spawned once. Each
/// query runs from `prepare` to fuse behind its own panic boundary, so a
/// panic fails only its own slot; `finalize` then runs on the caller's
/// thread in input order, which keeps the trace ring and the resilience
/// counters a function of the input rather than of thread timing.
fn fan_out(
    sys: &RagSystem,
    questions: &[&str],
    workers: usize,
) -> Vec<Result<QueryResult, SageError>> {
    let workers = workers.min(questions.len());
    let mut fused: Vec<_> = questions.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    (w..questions.len())
                        .step_by(workers)
                        .map(|i| (i, caught(sys, || run_query(sys, questions[i], None, None))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            // A worker cannot unwind past the per-query boundary, but
            // degrade gracefully if one somehow does: its slots stay
            // unfilled and surface as structured errors below.
            for (i, run) in h.join().unwrap_or_default() {
                fused[i] = Some(run);
            }
        }
    });
    fused
        .into_iter()
        .map(|run| {
            let (ctx, total) = run.unwrap_or_else(|| Err(worker_died()))?;
            caught(sys, || finalize(sys, ctx, total))
        })
        .collect()
}

impl RagSystem {
    /// Answer many open-ended questions with `workers` threads. Results
    /// align with the input order; answers are identical to serial calls
    /// (stages are deterministic per question and share nothing across
    /// queries but commutative sums). `workers == 0` is clamped to 1, and
    /// `workers > questions.len()` to the question count.
    ///
    /// Panics are isolated per question: a panic anywhere in one
    /// question's pipeline (an injected `panic` fault, a bug) is caught at
    /// that question's boundary and surfaced as
    /// `Err(SageError::Panicked)` in its slot, while every other question
    /// completes normally.
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
                let questions: Vec<&str> = questions.iter().map(String::as_str).collect();
                fan_out(self, &questions, workers)
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
                    let wave_questions: Vec<&str> = wave.iter().map(|&(_, q)| q.as_str()).collect();
                    let wave_results = fan_out(self, &wave_questions, workers);
                    for ((i, _), r) in wave.iter().zip(wave_results) {
                        results[*i] = Some(r);
                    }
                    let mut q = Self::lock_queue(m);
                    for _ in 0..wave.len() {
                        q.release();
                    }
                }
                results.into_iter().map(|r| r.unwrap_or_else(|| Err(worker_died()))).collect()
            }
        }
    }
}
