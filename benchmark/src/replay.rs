//! The layer replay behind the traced run: the same build and the same
//! question pushed through the layer crates' public functions one call at
//! a time, each under its own span, in the order `RagSystem::build` and the
//! executor (`exec/stages.rs`) make them. The replay is checked against the
//! pipeline on every question (`core.replay_match`) and its layer times
//! against the pipeline's own (`core.replay_cover`), so the per-layer
//! numbers are measured from outside yet account for the end-to-end time.

use crate::trace::Recorder;
use sage::embed::{Embedder, HashedEmbedder};
use sage::prelude::*;
use std::time::{Duration, Instant};

pub enum FirstStage {
    Dense { embedder: HashedEmbedder, index: FlatIndex },
    Bm25(Bm25Retriever),
}

/// What `RagSystem::build` assembles, rebuilt from the layer crates.
pub struct Parts {
    pub first: FirstStage,
    pub scorer: CrossScorer,
    pub chunks: Vec<String>,
    pub llm: SimLlm,
    pub config: SageConfig,
}

impl Parts {
    /// Bytes the first-stage index reports as resident.
    pub fn index_bytes(&self) -> usize {
        match &self.first {
            FirstStage::Dense { index, .. } => index.memory_bytes(),
            FirstStage::Bm25(r) => r.memory_bytes(),
        }
    }

    /// Vectors one dense search scans (0 for BM25).
    pub fn vectors(&self) -> usize {
        match &self.first {
            FirstStage::Dense { index, .. } => index.len(),
            FirstStage::Bm25(_) => 0,
        }
    }
}

/// segment → embed → index → fit IDF, as `RagSystem::build` does for
/// `SageConfig::sage()` with the hashed dense retriever or BM25.
pub fn build(
    rec: &mut Recorder,
    op: u32,
    models: &TrainedModels,
    dense: bool,
    config: SageConfig,
    corpus: &[String],
) -> Parts {
    let whole = rec.enter("replay-build", op);
    let (chunks, _) = rec.time("segment", op, || {
        let segmenter = SemanticSegmenter::with_params(
            models.segmentation.clone(),
            config.segmentation_threshold,
            config.coarse_tokens,
        );
        corpus.iter().flat_map(|doc| segmenter.segment(doc)).collect::<Vec<String>>()
    });
    let first = if dense {
        // `DenseRetriever::index` embeds and adds chunk by chunk; so does
        // the replay, summing each layer's calls into one span apiece.
        let embedder = HashedEmbedder::default_model();
        let mut index = FlatIndex::cosine();
        let (mut embed, mut add) = (Duration::ZERO, Duration::ZERO);
        let loop_start = Instant::now();
        for c in &chunks {
            let t0 = Instant::now();
            let v = embedder.embed(c);
            let t1 = Instant::now();
            index.add(v);
            embed += t1 - t0;
            add += t1.elapsed();
        }
        rec.record_sum("embed-index", op, loop_start, embed);
        rec.record_sum("vecdb-add", op, loop_start + embed, add);
        FirstStage::Dense { embedder, index }
    } else {
        let mut bm25 = Bm25Retriever::new();
        rec.time("bm25-index", op, || bm25.index(&chunks));
        FirstStage::Bm25(bm25)
    };
    let (scorer, _) = rec.time("fit-idf", op, || {
        let mut s = models.scorer.clone();
        s.fit_idf(&chunks);
        s
    });
    rec.exit(whole);
    Parts { first, scorer, chunks, llm: SimLlm::new(LlmProfile::gpt4o_mini()), config }
}

/// What one replayed question produced, with the counts the layer metrics
/// are made of (taken from return values, not from telemetry counters).
pub struct Replayed {
    pub answer: String,
    pub selected: Vec<usize>,
    pub cost: Cost,
    pub pairs: usize,
    pub reads: usize,
    pub feedbacks: usize,
}

/// embed → search → rerank → (select → read → feedback)*, moving `min_k` by
/// the judge's adjustment between rounds exactly as the executor does.
pub fn query(rec: &mut Recorder, op: u32, parts: &Parts, question: &str) -> Replayed {
    let cfg = &parts.config;
    let whole = rec.enter("replay", op);
    let cand_ids: Vec<usize> = match &parts.first {
        FirstStage::Dense { embedder, index } => {
            let (qv, _) = rec.time("embed-query", op, || embedder.embed_query(question));
            let (hits, _) = rec.time("vecdb-search", op, || index.search(&qv, cfg.candidates));
            hits.iter().map(|h| h.id).collect()
        }
        FirstStage::Bm25(bm25) => {
            let (hits, _) = rec.time("bm25-search", op, || bm25.retrieve(question, cfg.candidates));
            hits.iter().map(|h| h.index).collect()
        }
    };
    let (ranked, _) = rec.time("rerank", op, || {
        let texts: Vec<&str> = cand_ids.iter().map(|&i| parts.chunks[i].as_str()).collect();
        parts.scorer.rerank(question, &texts)
    });

    let mut out = Replayed {
        answer: String::new(),
        selected: Vec::new(),
        cost: Cost::zero(),
        pairs: cand_ids.len(),
        reads: 0,
        feedbacks: 0,
    };
    let mut min_k = cfg.min_k;
    let mut last: Option<Vec<usize>> = None;
    let mut best_score: Option<u8> = None;
    for _ in 0..cfg.max_feedback_rounds {
        let (context, _) = rec.time("select", op, || {
            let chosen = gradient_select(
                &ranked,
                SelectionConfig {
                    min_k,
                    gradient: cfg.gradient,
                    max_k: cfg.candidates,
                    ..SelectionConfig::default()
                },
            );
            let positions: Vec<usize> = chosen.iter().map(|r| r.index).collect();
            if last.as_deref() == Some(&positions[..]) {
                return None;
            }
            let selected: Vec<usize> = positions.iter().map(|&p| cand_ids[p]).collect();
            let texts: Vec<String> = selected.iter().map(|&id| parts.chunks[id].clone()).collect();
            last = Some(positions);
            Some((selected, texts))
        });
        // An adjusted min_k that selects the same chunks ends the loop.
        let Some((selected, context)) = context else { break };
        let (answer, _) = rec.time("read", op, || parts.llm.answer_open(question, &context));
        out.reads += 1;
        out.cost.merge(answer.cost);
        let (fb, _) = rec.time("feedback", op, || {
            // The executor's feedback stage re-assembles the context it
            // judges; so does the replay, to cost the same.
            let judged: Vec<String> = selected.iter().map(|&id| parts.chunks[id].clone()).collect();
            parts.llm.self_feedback(question, &judged, &answer)
        });
        out.feedbacks += 1;
        out.cost.merge(fb.cost);
        if best_score.is_none_or(|s| fb.score > s) {
            best_score = Some(fb.score);
            out.answer = answer.text;
            out.selected = selected;
        }
        if fb.score >= cfg.feedback_threshold {
            break;
        }
        min_k = (min_k as i64 + i64::from(fb.adjustment)).clamp(1, cfg.candidates as i64) as usize;
    }
    rec.exit(whole);
    out
}
