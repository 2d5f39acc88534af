//! # SAGE — A Framework of Precise Retrieval for RAG
//!
//! A from-scratch Rust reproduction of **"SAGE: A Framework of Precise
//! Retrieval for RAG"** (Zhang, Li, Su — ICDE 2025): semantic corpus
//! segmentation (a trained model that cuts at meaning boundaries, §IV),
//! gradient-based chunk selection (stop retrieving at the first sharp
//! relevance drop, §V, Algorithm 2), and an LLM self-feedback loop that
//! adjusts the retrieval budget (§VI) — plus every substrate those need
//! and every baseline the paper compares against.
//!
//! This facade crate re-exports the workspace's public API. The pieces:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`text`] | `sage-text` | tokenization, sentences, stemming, vocabulary |
//! | [`nn`] | `sage-nn` | matrices, MLP + backprop, Adam, embedding tables |
//! | [`embed`] | `sage-embed` | hashed / TF-IDF / siamese / dual-tower encoders |
//! | [`vecdb`] | `sage-vecdb` | exact flat vector index (+ tombstoned mutable wrapper) |
//! | [`retrieval`] | `sage-retrieval` | BM25 inverted index, dense retrievers |
//! | [`corpus`] | `sage-corpus` | synthetic QuALITY/QASPER/NarrativeQA/TriviaQA analogs |
//! | [`segment`] | `sage-segment` | the segmentation model (Algorithm 1) + segmenters |
//! | [`rerank`] | `sage-rerank` | cross-feature reranker + gradient selection |
//! | [`llm`] | `sage-llm` | simulated LLM readers, self-feedback judge, cost model |
//! | [`eval`] | `sage-eval` | ROUGE/BLEU/METEOR/F1 + Eq.1/Eq.2 cost efficiency |
//! | [`resilience`] | `sage-resilience` | deterministic fault injection; the per-query guards (retries, a failure cap) every query runs behind |
//! | [`admission`] | `sage-admission` | admission control, deadline budgets, brownout ladder |
//! | [`telemetry`] | `sage-telemetry` | spans, histograms, cost ledger, exporters, the per-query observation, the `sage report` bundle |
//! | [`core`] | `sage-core` | the assembled pipeline, baselines, experiment harnesses |
//!
//! ## Quickstart
//!
//! ```
//! use sage::prelude::*;
//!
//! // Train the models once (deterministic; use TrainBudget::tiny() in
//! // tests, TrainBudget::default() for experiments).
//! let models = TrainedModels::train(TrainBudget::tiny());
//!
//! // A corpus: documents with '\n' between paragraphs.
//! let corpus = vec![
//!     "Whiskers is a playful tabby cat. He has bright green eyes.\n\
//!      Dorinwick was well known in the region. He lives in Ashford."
//!         .to_string(),
//! ];
//!
//! // Build SAGE: semantic segmentation -> embed -> index.
//! let system = RagSystem::build(
//!     &models,
//!     RetrieverKind::OpenAiSim,
//!     SageConfig::sage(),
//!     LlmProfile::gpt4o_mini(),
//!     &corpus,
//! );
//!
//! // Ask.
//! let result = system.answer(&Request::new("What is the color of Whiskers's eyes?"))?;
//! assert!(result.answer.text.contains("green"));
//! println!("{} (${:.6})", result.answer.text,
//!          result.cost.dollars(sage::eval::PriceTable::gpt4o_mini()));
//! # Ok::<(), SageError>(())
//! ```
//!
//! See `DESIGN.md` for the substitution table (what the paper used → what
//! this repo builds) and `EXPERIMENTS.md` for paper-vs-measured results of
//! every table and figure.

pub use sage_admission as admission;
pub use sage_core as core;
pub use sage_corpus as corpus;
pub use sage_embed as embed;
pub use sage_eval as eval;
pub use sage_llm as llm;
pub use sage_nn as nn;
pub use sage_rerank as rerank;
pub use sage_resilience as resilience;
pub use sage_retrieval as retrieval;
pub use sage_segment as segment;
pub use sage_telemetry as telemetry;
pub use sage_text as text;
pub use sage_vecdb as vecdb;

/// The commonly used types in one import.
pub mod prelude {
    pub use sage_admission::{
        AdmissionConfig, AdmissionQueue, BrownoutLevel, Priority, QueryBudget, SoakConfig,
    };
    pub use sage_core::baselines::{DocSystem, Method};
    pub use sage_core::config::{RetrieverKind, SageConfig};
    pub use sage_core::exec::QueryPlan;
    pub use sage_core::experiment::{evaluate, MethodScores};
    pub use sage_core::live::{
        run_live_soak, CorpusWriter, LiveConfig, LiveOp, LiveRetrieverKind, LiveSnapshot,
        LiveSoakConfig, LiveSoakReport,
    };
    pub use sage_core::models::{TrainBudget, TrainedModels};
    pub use sage_core::pipeline::{
        BuildPhases, BuildStats, PhaseTime, QueryResult, RagSystem, Request,
    };
    pub use sage_core::scenario::{parse_scenarios, render_rows, run_cell, BenchRow, ScenarioCell};
    pub use sage_core::soak::{run_soak, SoakReport};
    pub use sage_corpus::datasets::SizeConfig;
    pub use sage_resilience::{
        Component, CrashPlan, CrashPoint, DegradeTrace, Fallback, FaultKind, FaultPlan, Rates,
        SageError,
    };
    pub use sage_corpus::{Dataset, Document, QaItem, QaTask, QuestionKind};
    pub use sage_eval::{bleu, cost_efficiency, f1_match, meteor, rouge_l, Cost, PriceTable};
    pub use sage_llm::{fine_tune, Answer, LlmProfile, SimLlm};
    pub use sage_rerank::{gradient_select, CrossScorer, SelectionConfig};
    pub use sage_retrieval::{Bm25Retriever, DenseRetriever, Retriever};
    pub use sage_segment::{SegmentationModel, Segmenter, SemanticSegmenter, SentenceSegmenter};
    pub use sage_telemetry::{HistogramSnapshot, Outcome, QueryObs, Stage, Telemetry};
    pub use sage_vecdb::{FlatIndex, MutableIndex, VectorIndex};
}
