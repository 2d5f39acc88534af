//! # sage-core
//!
//! The SAGE framework (paper Figure 2) assembled from the substrate
//! crates, plus every baseline the paper compares against and the
//! experiment harnesses that regenerate its tables and figures.
//!
//! * [`config::SageConfig`] — the paper's hyper-parameters (`ss = 0.55`,
//!   `l = 400`, `min_k = 7`, `g = 0.3`, `fs = 9`, `N = 20`, ≤3 feedback
//!   rounds) plus per-module toggles for the Table IV ablation.
//! * [`models::TrainedModels`] — one-stop training of the segmentation
//!   model (Algorithm 1), the cross-feature reranker, and the SBERT/DPR
//!   analog encoders, all deterministic.
//! * [`pipeline::RagSystem`] — build (segment → embed → index) and query
//!   (retrieve → rerank → gradient-select → generate → self-feedback).
//! * [`baselines`] — Naive RAG, Title+Abstract, BM25+BERT, Recursively
//!   Summarizing Books, RAPTOR, and the reader baselines (BiDAF /
//!   Longformer / CoLISA / DPR+DeBERTa analogs).
//! * [`experiment`] — dataset → system → metrics plumbing shared by every
//!   bench target.
//! * [`scalability`] — the Tables VIII/IX concurrency harness.
//! * [`case_studies`] — the Figure 8/9/10 single-question drivers.
//! * [`multihop`] — the paper's future-work §X(1): iterative multi-hop
//!   retrieval (Baleen-style), with its own synthetic 2-hop tasks.
//! * [`resilience`] — the serving-path fault-injection and
//!   graceful-degradation layer (guarded component boundaries, retries,
//!   per-query circuit breakers, the documented fallback chain).
//! * [`soak`] — the deterministic overload harness: a seeded open-loop
//!   arrival process replayed against a built system through admission
//!   control and per-query deadline budgets, on a virtual clock.
//! * [`live`] — the live-corpus mutation subsystem: a single-writer
//!   [`live::CorpusWriter`] applying document upserts/deletes through
//!   epoch-based snapshots, persisted as incremental segment files plus a
//!   manifest (the [`fsx`] commit protocol), with deterministic
//!   crash-point injection and recovery drills.
//! * [`fsx`] — the shared durable-commit substrate: CRC-32 `SAGECRC1`
//!   framing and the atomic tmp+fsync+rename+dir-fsync protocol used by
//!   [`persist`], [`models`], and the live store.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types, reason = "tests may time and hash freely"))]

pub mod baselines;
pub mod case_studies;
pub mod config;
pub mod exec;
pub mod experiment;
#[cfg(test)]
mod format_goldens;
pub mod fsx;
pub mod live;
pub mod models;
pub mod multihop;
pub mod persist;
pub mod pipeline;
pub mod resilience;
mod result;
mod retriever;
pub mod scalability;
pub mod scenario;
pub mod soak;

pub use config::{RetrieverKind, SageConfig};
pub use live::{
    run_live_soak, CommitReport, CorpusWriter, LiveConfig, LiveHit, LiveOp, LiveRetrieverKind,
    LiveSnapshot, LiveSoakConfig, LiveSoakReport, RecoveryReport,
};
pub use models::TrainedModels;
pub use pipeline::{BuildStats, QueryResult, RagSystem};
pub use resilience::ResilienceConfig;
pub use soak::{run_soak, SoakReport};
