//! Batched execution: a batch is N questions on W threads. Worker `w`
//! answers questions `w, w + W, …` to completion — the assignment is a
//! pure function of the index. Results are byte-identical (in every
//! deterministic field) to a sequential loop of single-query calls, at any
//! worker count and any batch size.

use super::{caught, finalize, run_query};
use crate::pipeline::{RagSystem, Request};
use crate::QueryResult;
use sage_resilience::SageError;

impl RagSystem {
    /// Answer many open-ended questions with `workers` scoped threads,
    /// spawned once. Results align with the input order; answers are
    /// identical to serial calls (stages are deterministic per question and
    /// share nothing across queries but commutative sums). `workers == 0`
    /// is clamped to 1, and `workers > questions.len()` to the question
    /// count.
    ///
    /// Panics are isolated per question: each query runs to its result
    /// behind its own panic boundary, so a panic anywhere in one
    /// question's pipeline (an injected `panic` fault, a bug) surfaces as
    /// `Err(SageError::Panicked)` in its slot while every other question
    /// completes normally. `finalize` then runs on the caller's thread in
    /// input order, which keeps the trace ring and the fallback counters a
    /// function of the input rather than of thread timing.
    pub fn try_answer_batch(
        &self,
        questions: &[String],
        workers: usize,
    ) -> Vec<Result<QueryResult, SageError>> {
        let workers = workers.max(1).min(questions.len());
        let mut fused: Vec<_> = questions.iter().map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        (w..questions.len())
                            .step_by(workers)
                            .map(|i| {
                                let req = Request::new(&questions[i]);
                                (i, caught(self, || run_query(self, &req)))
                            })
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
                let worker_died = || SageError::Panicked {
                    detail: "answer worker died before reporting".to_string(),
                };
                let ran = run.unwrap_or_else(|| Err(worker_died()))?;
                caught(self, || finalize(self, ran))
            })
            .collect()
    }
}
