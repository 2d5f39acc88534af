//! # sage-retrieval
//!
//! First-stage retrieval (paper §III-B, steps 1–4): given a question,
//! surface the N candidate chunks that the reranker will then score.
//!
//! Two retriever families, matching the paper's §VII-A lineup:
//!
//! * [`Bm25Retriever`] — a from-scratch Okapi BM25 inverted index (the
//!   paper's sparse baseline);
//! * [`DenseRetriever`] — any [`sage_embed::Embedder`] paired with any
//!   [`sage_vecdb::VectorIndex`] (OpenAI-analog / SBERT-analog /
//!   DPR-analog retrievers are all `DenseRetriever`s with different
//!   embedders).
//!
//! Both implement [`Retriever`]: index a chunk list once, then answer
//! top-N queries over it.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types, reason = "tests may time and hash freely"))]

pub mod bm25;
pub mod dense;

pub use bm25::Bm25Retriever;
pub use dense::DenseRetriever;

/// A retrieved chunk reference: index into the indexed chunk list plus the
/// retriever's relevance score (higher = more relevant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredChunk {
    /// Index into the chunk list passed to [`Retriever::index`].
    pub index: usize,
    /// Retriever-specific relevance score.
    pub score: f32,
}

/// First-stage retriever over a fixed chunk list.
pub trait Retriever: Send + Sync {
    /// (Re)build the index over `chunks`. Chunk indices in
    /// [`ScoredChunk::index`] refer to this slice.
    fn index(&mut self, chunks: &[String]);

    /// Top-`n` most relevant chunks for `query`, best first.
    fn retrieve(&self, query: &str, n: usize) -> Vec<ScoredChunk>;

    /// Number of indexed chunks.
    fn len(&self) -> usize;

    /// Whether anything is indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Display name for experiment tables.
    fn name(&self) -> String;

    /// Approximate index memory (for the scalability tables).
    fn memory_bytes(&self) -> usize;
}
