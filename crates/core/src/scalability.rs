//! The Tables VIII/IX harness: memory, offline latency, and online latency
//! under 1x / 5x / 10x concurrent question streams on the TriviaQA-analog
//! corpus.
//!
//! Measured quantities are measured (segmentation and index-build wall
//! time, concurrent retrieval latency, resident-memory estimates);
//! LLM-call latencies are simulated from the profile's generation speed,
//! since the paper's numbers come from a web API / local GPU we do not
//! have.

use crate::config::{RetrieverKind, SageConfig};
use crate::models::TrainedModels;
use crate::pipeline::RagSystem;
use sage_corpus::Dataset;
use sage_eval::f1_match;
use sage_llm::LlmProfile;
use std::time::Duration;

/// The four system rows of Tables VIII/IX.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalMethod {
    /// Naive RAG with the dense (OpenAI-analog) retriever.
    NaiveRag,
    /// Naive RAG with BM25.
    Bm25NaiveRag,
    /// SAGE stages over BM25 retrieval.
    Bm25Sage,
    /// Full SAGE.
    Sage,
}

impl ScalMethod {
    /// Table row label.
    pub fn label(self) -> &'static str {
        match self {
            ScalMethod::NaiveRag => "Naive RAG",
            ScalMethod::Bm25NaiveRag => "BM25 + Naive RAG",
            ScalMethod::Bm25Sage => "BM25 + SAGE",
            ScalMethod::Sage => "SAGE",
        }
    }

    fn build(self, models: &TrainedModels, profile: LlmProfile, corpus: &[String]) -> RagSystem {
        match self {
            ScalMethod::NaiveRag => RagSystem::build(
                models,
                RetrieverKind::OpenAiSim,
                SageConfig::naive_rag(),
                profile,
                corpus,
            ),
            ScalMethod::Bm25NaiveRag => RagSystem::build(
                models,
                RetrieverKind::Bm25,
                SageConfig::naive_rag(),
                profile,
                corpus,
            ),
            ScalMethod::Bm25Sage => RagSystem::build(
                models,
                RetrieverKind::Bm25,
                SageConfig::sage(),
                profile,
                corpus,
            ),
            ScalMethod::Sage => RagSystem::build(
                models,
                RetrieverKind::OpenAiSim,
                SageConfig::sage(),
                profile,
                corpus,
            ),
        }
    }

    /// Whether the method loads the trained GPU models (segmentation model
    /// + reranker) — drives the GPU-memory column.
    fn uses_models(self) -> bool {
        matches!(self, ScalMethod::Bm25Sage | ScalMethod::Sage)
    }
}

/// One row of Table VIII/IX.
#[derive(Debug, Clone)]
pub struct ScalabilityRow {
    /// Method label.
    pub method: &'static str,
    /// Concurrency level (1, 5, 10).
    pub concurrency: usize,
    /// Host-memory estimate in bytes (index + chunks + corpus + per-stream
    /// buffers).
    pub host_memory_bytes: usize,
    /// Accelerator-memory analog in bytes (model parameters + per-stream
    /// activations); 0 for methods that load no model.
    pub gpu_memory_bytes: usize,
    /// Measured index-build wall time.
    pub build_db_latency: Duration,
    /// Measured segmentation wall time.
    pub segmentation_latency: Duration,
    /// Segmentation throughput in tokens/second.
    pub segmentation_tokens_per_s: f64,
    /// Measured mean retrieval (+rerank) latency per question under the
    /// concurrent load.
    pub retrieval_latency: Duration,
    /// Simulated mean feedback latency per question (zero when feedback is
    /// off).
    pub feedback_latency: Duration,
    /// Simulated mean answer-generation latency per question.
    pub answer_latency: Duration,
    /// F1-Match over the question set.
    pub f1: f32,
}

/// Rough parameter-memory estimate for the trained models (segmentation
/// embedder + MLP + reranker + encoder tables), standing in for the
/// paper's GPU-memory column.
fn model_param_bytes() -> usize {
    // 2048x24 seg table + MLP, 2x 4096x48 towers, 4096x48 siamese, scorer.
    let seg = 2048 * 24 + 96 * 24 + 24;
    let towers = 2 * 4096 * 48 + 4096 * 48;
    let scorer = 7 * 12 + 12;
    (seg + towers + scorer) * 4
}

/// Run one (method, concurrency) cell: build the corpus-wide system, then
/// answer every dataset question with `concurrency` worker threads,
/// measuring retrieval wall time and aggregating simulated LLM latencies
/// and F1.
pub fn run_cell(
    method: ScalMethod,
    models: &TrainedModels,
    profile: LlmProfile,
    dataset: &Dataset,
    concurrency: usize,
) -> ScalabilityRow {
    let corpus: Vec<String> = dataset.documents.iter().map(|d| d.text()).collect();
    let system = method.build(models, profile, &corpus);
    let stats = *system.build_stats();

    // Concurrent query phase: one batch, `concurrency` worker threads.
    let questions: Vec<String> = dataset.tasks.iter().map(|t| t.item.question.clone()).collect();
    let results: Vec<(f32, Duration, Duration, Duration)> = system
        .try_answer_batch(&questions, concurrency)
        .iter()
        .zip(&dataset.tasks)
        .map(|(r, task)| match r {
            Ok(r) => {
                let f1 = f1_match(&r.answer.text, &task.item.answers);
                (f1, r.retrieval_latency, r.feedback_latency, r.answer_latency)
            }
            // One question's panic must not abort the cell: score it
            // zero and keep measuring the rest.
            Err(_) => (0.0, Duration::ZERO, Duration::ZERO, Duration::ZERO),
        })
        .collect();

    let n = results.len().max(1) as u32;
    let f1 = results.iter().map(|r| r.0).sum::<f32>() / n as f32;
    let retrieval = results.iter().map(|r| r.1).sum::<Duration>() / n;
    let feedback = results.iter().map(|r| r.2).sum::<Duration>() / n;
    let answer = results.iter().map(|r| r.3).sum::<Duration>() / n;

    let corpus_bytes: usize = corpus.iter().map(String::len).sum();
    let per_stream_buffers = 32 * 1024; // question embeddings, prompts, heaps
    // SAGE rows also host the trained models' runtime (the paper's host
    // memory jumps from 0.58 GB to 5.17 GB when the models are loaded).
    let model_host = if method.uses_models() { 2 * model_param_bytes() } else { 0 };
    let host_memory_bytes =
        stats.memory_bytes + corpus_bytes + model_host + concurrency * per_stream_buffers;
    let gpu_memory_bytes = if method.uses_models() {
        // Parameters + per-stream activation workspace.
        model_param_bytes() + concurrency * 64 * 1024
    } else {
        0
    };
    let seg_tokens_per_s = if stats.segmentation_time.as_secs_f64() > 0.0 {
        stats.corpus_tokens as f64 / stats.segmentation_time.as_secs_f64()
    } else {
        f64::INFINITY
    };

    ScalabilityRow {
        method: method.label(),
        concurrency,
        host_memory_bytes,
        gpu_memory_bytes,
        build_db_latency: stats.index_time,
        segmentation_latency: stats.segmentation_time,
        segmentation_tokens_per_s: seg_tokens_per_s,
        retrieval_latency: retrieval,
        feedback_latency: feedback,
        answer_latency: answer,
        f1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::tiny_models as models;
    use sage_corpus::datasets::{triviaqa, SizeConfig};

    fn dataset() -> Dataset {
        triviaqa::generate(SizeConfig { num_docs: 20, questions_per_doc: 1, seed: 5 })
    }

    #[test]
    fn cell_runs_and_scores() {
        let row = run_cell(
            ScalMethod::Sage,
            models(),
            LlmProfile::gpt4o_mini(),
            &dataset(),
            1,
        );
        assert!(row.f1 > 0.0, "F1 {}", row.f1);
        assert!(row.host_memory_bytes > 0);
        assert!(row.gpu_memory_bytes > 0);
        assert!(row.answer_latency > Duration::ZERO);
        assert!(row.feedback_latency > Duration::ZERO, "SAGE runs feedback");
    }

    #[test]
    fn naive_has_no_gpu_memory_or_feedback() {
        let row = run_cell(
            ScalMethod::NaiveRag,
            models(),
            LlmProfile::gpt4o_mini(),
            &dataset(),
            1,
        );
        assert_eq!(row.gpu_memory_bytes, 0);
        assert_eq!(row.feedback_latency, Duration::ZERO);
    }

    #[test]
    fn memory_grows_mildly_with_concurrency() {
        let ds = dataset();
        let one = run_cell(ScalMethod::Sage, models(), LlmProfile::gpt4o_mini(), &ds, 1);
        let ten = run_cell(ScalMethod::Sage, models(), LlmProfile::gpt4o_mini(), &ds, 10);
        assert!(ten.host_memory_bytes > one.host_memory_bytes);
        // The paper stresses the increase is small (≈27% at 10x).
        let ratio = ten.host_memory_bytes as f64 / one.host_memory_bytes as f64;
        assert!(ratio < 2.0, "memory ratio {ratio}");
        // Offline phases run once regardless of concurrency (wall-clock
        // noise aside, both must be nonzero and same order of magnitude).
        assert!(one.segmentation_latency > Duration::ZERO);
        assert!(ten.segmentation_latency > Duration::ZERO);
        // F1 unaffected by concurrency (deterministic per-question).
        assert!((one.f1 - ten.f1).abs() < 1e-6);
    }

    #[test]
    fn concurrent_queries_match_serial_results() {
        let ds = dataset();
        let serial = run_cell(ScalMethod::Bm25Sage, models(), LlmProfile::gpt4o_mini(), &ds, 1);
        let parallel =
            run_cell(ScalMethod::Bm25Sage, models(), LlmProfile::gpt4o_mini(), &ds, 5);
        assert!((serial.f1 - parallel.f1).abs() < 1e-6, "answers must not depend on threading");
    }
}
