//! The stages of one query, each a method on [`Query`]: a stage runs its
//! component behind the query's guards, takes its fallback in place, and
//! opens and closes its own telemetry span, stage histogram sample and
//! ledger entry.

#![expect(
    clippy::disallowed_methods,
    reason = "each stage times itself for its telemetry histogram; no control flow branches on the readings"
)]

use super::QueryPlan;
use crate::pipeline::RagSystem;
use sage_eval::Cost;
use sage_llm::{Answer, FeedbackOutcome};
use sage_rerank::RankedChunk;
use sage_resilience::{Component, DegradeEvent, DegradeTrace, Failure, Fallback, Guards};
use sage_retrieval::{Retriever, ScoredChunk};
use sage_telemetry::{FieldValue, Stage, Trace};
use std::time::{Duration, Instant};

/// One round's generation output: what the reader answered and over which
/// chunks (the second-best set when the reader degraded).
pub(crate) struct RoundAnswer {
    /// Chosen option index in multiple-choice mode.
    pub picked: Option<usize>,
    /// The generated answer.
    pub answer: Answer,
    /// Chunk ids the reader actually saw.
    pub selected: Vec<usize>,
}

/// What every stage of one query shares: the question, the query's guards
/// under the system's fault plan, the fallbacks fired so far and the span
/// trace, when one is recorded.
pub(crate) struct Query<'a> {
    /// The system answering.
    pub sys: &'a RagSystem,
    /// The question being answered.
    question: &'a str,
    /// Multiple-choice options, when in that mode.
    options: Option<&'a [String]>,
    /// Per-component failure counts under the system's fault plan.
    guards: Guards<'a>,
    /// Degradation events so far: planned brownout rungs and fired
    /// fallbacks, in order.
    pub trace: DegradeTrace,
    /// The query's span trace, when one is recorded.
    pub qt: Option<Trace>,
}

impl<'a> Query<'a> {
    /// Fresh guards and an empty degradation trace; a span trace when
    /// `traced` and a hub is attached.
    pub(crate) fn new(
        sys: &'a RagSystem,
        question: &'a str,
        options: Option<&'a [String]>,
        traced: bool,
    ) -> Self {
        let qt = sys.telemetry.as_ref().filter(|_| traced).map(|_| Trace::start(question));
        let guards = Guards::new(&sys.faults);
        Query { sys, question, options, guards, trace: DegradeTrace::new(), qt }
    }

    fn enter(&mut self, name: &'static str) -> Option<usize> {
        self.qt.as_mut().map(|t| t.enter(name))
    }

    /// Attach `fields` to span `id` and close it.
    fn exit(
        &mut self,
        id: Option<usize>,
        fields: impl IntoIterator<Item = (&'static str, FieldValue)>,
    ) {
        if let (Some(t), Some(id)) = (self.qt.as_mut(), id) {
            for (key, value) in fields {
                t.field(id, key, value);
            }
            t.exit(id);
        }
    }

    /// The chunk texts of `ids`, in order.
    pub(crate) fn context(&self, ids: &[usize]) -> Vec<String> {
        ids.iter().map(|&id| self.sys.chunks[id].clone()).collect()
    }

    /// Record one fired fallback.
    fn degrade(&mut self, component: Component, fallback: Fallback, failure: Failure) {
        let Failure { error, attempts, delay } = failure;
        self.trace.events.push(DegradeEvent { component, fallback, error, attempts, delay });
    }

    /// Retrieve, then rerank: the candidate chunk ids, and the ranked list
    /// over their positions.
    pub(crate) fn prelude(&mut self, plan: &QueryPlan) -> (Vec<usize>, Vec<RankedChunk>) {
        let hits = self.retrieve(plan.dense);
        let cand_ids: Vec<usize> = hits.iter().map(|h| h.index).collect();
        let ranked = self.rerank(plan.rerank, &hits, &cand_ids);
        (cand_ids, ranked)
    }

    /// First-stage retrieval: embed and vector search when `dense`, BM25
    /// otherwise. A failed embed or index search falls back to BM25 in
    /// place. The retrieve span covers the whole stage, the embed span
    /// nests inside it.
    fn retrieve(&mut self, dense: bool) -> Vec<ScoredChunk> {
        let (sys, question, n) = (self.sys, self.question, self.sys.config.candidates);
        let start = Instant::now();
        let sid = self.enter("retrieve");
        let hits = if dense {
            match self.embed().and_then(|v| self.search_dense(&v)) {
                Ok(hits) => hits,
                Err((component, failure)) => {
                    self.degrade(component, Fallback::DenseToBm25, failure);
                    sys.fallback_bm25().retrieve(question, n)
                }
            }
        } else {
            sys.retriever.retrieve(question, n)
        };
        self.exit(sid, [("candidates", hits.len().into())]);
        sys.tel_stage(Stage::Retrieve, start.elapsed());
        hits
    }

    fn embed(&mut self) -> Result<Vec<f32>, (Component, Failure)> {
        let (sys, question) = (self.sys, self.question);
        let start = Instant::now();
        let sid = self.enter("embed");
        let embedded = self.guards.run(
            Component::Embedder,
            question,
            // None embeds as the empty vector, which the validator below
            // rejects, so the guard degrades DenseToBm25 instead of panicking
            // inside the guarded closure.
            || sys.retriever.embed_query(question).unwrap_or_default(),
            |v| {
                for x in v.iter_mut() {
                    *x = f32::NAN;
                }
            },
            |v| !v.is_empty() && v.iter().all(|x| x.is_finite()),
        );
        self.exit(sid, None);
        sys.tel_stage(Stage::Embed, start.elapsed());
        embedded.map_err(|failure| (Component::Embedder, failure))
    }

    fn search_dense(&self, query: &[f32]) -> Result<Vec<ScoredChunk>, (Component, Failure)> {
        let (sys, n) = (self.sys, self.sys.config.candidates);
        self.guards
            .run(
                Component::IndexSearch,
                self.question,
                // A missing dense index becomes a single NaN-scored sentinel
                // hit, which the validator rejects, so the guard degrades
                // DenseToBm25 instead of panicking inside the guarded closure.
                || {
                    sys.retriever
                        .search_dense(query, n)
                        .unwrap_or_else(|| vec![ScoredChunk { index: 0, score: f32::NAN }])
                },
                |hits| {
                    for h in hits.iter_mut() {
                        h.score = f32::NAN;
                    }
                    if hits.is_empty() {
                        hits.push(ScoredChunk { index: 0, score: f32::NAN });
                    }
                },
                |hits| hits.iter().all(|h| h.score.is_finite()),
            )
            .map_err(|failure| (Component::IndexSearch, failure))
    }

    /// Cross-encoder rerank of the candidate pool when `full` and a scorer
    /// is fitted; the retrieval order otherwise, and when the reranker
    /// fails.
    fn rerank(&mut self, full: bool, hits: &[ScoredChunk], cand_ids: &[usize]) -> Vec<RankedChunk> {
        let (sys, question) = (self.sys, self.question);
        let start = Instant::now();
        let scorer = sys.scorer.as_ref().filter(|_| full);
        // A span only when the cross-encoder actually scores pairs.
        let sid = if scorer.is_some() { self.enter("rerank") } else { None };
        let ranked = match scorer {
            Some(scorer) => {
                let texts: Vec<&str> = cand_ids.iter().map(|&i| sys.chunks[i].as_str()).collect();
                let reranked = self.guards.run(
                    Component::Reranker,
                    question,
                    || scorer.rerank(question, &texts),
                    |rl| {
                        for r in rl.iter_mut() {
                            r.score = f32::NAN;
                        }
                    },
                    |rl| rl.len() == texts.len() && rl.iter().all(|r| r.score.is_finite()),
                );
                reranked.unwrap_or_else(|failure| {
                    self.degrade(Component::Reranker, Fallback::RerankToRetrievalOrder, failure);
                    retrieval_order(hits)
                })
            }
            None => retrieval_order(hits),
        };
        self.exit(sid, [("pairs", ranked.len().into())]);
        // A bypassed but configured rerank still observes its (near zero)
        // stage time, so budgeted and unbudgeted histograms stay comparable.
        if sys.scorer.is_some() {
            sys.tel_stage(Stage::Rerank, start.elapsed());
        }
        ranked
    }

    /// One read over `context`, the chunks `selected`. `round` is the span's
    /// round (`None` for a fixed context); `cand_ids` and `ranked` give the
    /// second-best context.
    pub(crate) fn read(
        &mut self,
        round: Option<usize>,
        selected: &[usize],
        context: &[String],
        cand_ids: &[usize],
        ranked: &[RankedChunk],
    ) -> Option<RoundAnswer> {
        let start = Instant::now();
        let sid = self.enter("read");
        let read = self.read_with_fallback(selected, context, cand_ids, ranked);
        let tokens = read.iter().flat_map(|r| {
            let cost = r.answer.cost;
            [
                ("context_chunks", r.selected.len().into()),
                ("input_tokens", cost.input_tokens.into()),
                ("output_tokens", cost.output_tokens.into()),
            ]
        });
        self.exit(sid, round.map(|r| ("round", r.into())).into_iter().chain(tokens));
        self.sys.tel_stage(Stage::Read, start.elapsed());
        if let Some(r) = &read {
            self.sys.tel_cost(Stage::Read, &r.answer.cost);
        }
        read
    }

    /// The reader leg of the degradation chain: the round's context, then
    /// the second-best set, then `None` (the query then degrades to an
    /// unanswerable answer).
    fn read_with_fallback(
        &mut self,
        selected: &[usize],
        context: &[String],
        cand_ids: &[usize],
        ranked: &[RankedChunk],
    ) -> Option<RoundAnswer> {
        let failure = match self.generate(context, self.question) {
            Ok((picked, answer)) => {
                return Some(RoundAnswer { picked, answer, selected: selected.to_vec() })
            }
            Err(failure) => failure,
        };
        // Second-best context: the ranked list shifted down by one — drops
        // the (possibly poisoned) top chunk while keeping the context size.
        let alt_ids: Vec<usize> =
            ranked.iter().skip(1).take(selected.len().max(1)).map(|r| cand_ids[r.index]).collect();
        if alt_ids.is_empty() {
            // No second-best set (a fixed context ranks nothing; a single
            // candidate has no runner-up): a read over zero chunks would only
            // bill the reader and the judge for an empty context.
            self.degrade(Component::Reader, Fallback::ReaderUnanswerable, failure);
            return None;
        }
        self.degrade(Component::Reader, Fallback::ReaderSecondBest, failure);
        let retry_key = format!("{}\u{1f}second-best", self.question);
        match self.generate(&self.context(&alt_ids), &retry_key) {
            Ok((picked, answer)) => Some(RoundAnswer { picked, answer, selected: alt_ids }),
            Err(failure) => {
                self.degrade(Component::Reader, Fallback::ReaderUnanswerable, failure);
                None
            }
        }
    }

    /// One guarded generation call over `context`. `key` is the determinism
    /// handle (the question for the round's context, a derived key for the
    /// second-best set so the two calls draw independent fault decisions).
    fn generate(&self, context: &[String], key: &str) -> Result<(Option<usize>, Answer), Failure> {
        let (llm, question) = (&self.sys.llm, self.question);
        match self.options {
            Some(opts) => self.guards.run(
                Component::Reader,
                key,
                || {
                    let (idx, a) = llm.answer_multiple_choice(question, opts, context);
                    (Some(idx), a)
                },
                |(pick, a)| {
                    a.text.clear();
                    a.confidence = f32::NAN;
                    *pick = None;
                },
                |(pick, a)| a.is_wellformed() && pick.is_some_and(|i| i < opts.len()),
            ),
            None => self.guards.run(
                Component::Reader,
                key,
                || (None, llm.answer_open(question, context)),
                |(_, a)| {
                    a.text.clear();
                    a.confidence = f32::NAN;
                },
                |(_, a)| a.is_wellformed(),
            ),
        }
    }

    /// Self-feedback on `read`, judged against the context the reader
    /// actually saw: the round's own (`selected`, `context`), or the
    /// second-best set when the reader degraded.
    pub(crate) fn feedback(
        &mut self,
        read: &RoundAnswer,
        selected: &[usize],
        context: &[String],
    ) -> FeedbackOutcome {
        let start = Instant::now();
        let sid = self.enter("feedback");
        let second_best: Vec<String>;
        let context = if read.selected == selected {
            context
        } else {
            second_best = self.context(&read.selected);
            &second_best
        };
        let fb = self.sys.llm.self_feedback(self.question, context, &read.answer);
        let (score, adjustment) = (u64::from(fb.score), i64::from(fb.adjustment));
        self.exit(sid, [("score", score.into()), ("adjustment", adjustment.into())]);
        self.sys.tel_stage(Stage::Feedback, start.elapsed());
        self.sys.tel_cost(Stage::Feedback, &fb.cost);
        fb
    }
}

fn retrieval_order(hits: &[ScoredChunk]) -> Vec<RankedChunk> {
    hits.iter().enumerate().map(|(pos, h)| RankedChunk { index: pos, score: h.score }).collect()
}

/// The degraded terminal answer: the reader (or the whole feedback loop)
/// produced nothing usable. `latency` is the measured (virtual) time spent
/// reaching this verdict — retry backoff accumulated by the failed
/// attempts — not a zero placeholder.
pub(crate) fn unanswerable(latency: Duration) -> Answer {
    Answer { text: "unanswerable".to_string(), confidence: 0.0, cost: Cost::zero(), latency }
}
