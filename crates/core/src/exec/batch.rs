//! Batched execution over the slot scheduler: many questions run
//! *interleaved* — each live query advances one plan slot per scheduler
//! tick, same-stage ready slots coalesce into cross-query batch ops, and
//! the admission-queue wave protocol feeds the ready-set. Results are
//! byte-identical (in every deterministic field) to a sequential loop of
//! single-query calls, at any worker count and any batch size.

use super::sched;
use crate::pipeline::RagSystem;
use crate::QueryResult;
use sage_admission::{Decision, Priority};
use sage_resilience::{Fallback, SageError};

impl RagSystem {
    /// Answer many open-ended questions with `workers` scheduler threads.
    /// Results align with the input order; answers are identical to serial
    /// calls (stages are deterministic per question and the coalesced
    /// batch surfaces are element-wise). `workers == 0` is clamped to 1,
    /// and `workers > questions.len()` to the question count.
    ///
    /// Panics are isolated per question: a panic anywhere in one
    /// question's pipeline (an injected `panic` fault, a bug) is caught at
    /// the scheduler's per-slot boundary and surfaced as
    /// `Err(SageError::Panicked)` in that question's slot, while every
    /// other in-flight question completes normally.
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
                sched::run_interleaved(self, &questions, workers)
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
                    let wave_results = sched::run_interleaved(self, &wave_questions, workers);
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
}
