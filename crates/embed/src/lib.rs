//! # sage-embed
//!
//! Embedding models for the SAGE retrieval stack — the paper's four
//! retrievers (§VII-A) minus BM25 (which lives in `sage-retrieval`) are
//! embedding models paired with a vector database:
//!
//! | Paper | Here | Kind |
//! |---|---|---|
//! | OpenAI `text-embedding-3-small` | [`HashedEmbedder`] | untrained, feature-hashed |
//! | SBERT | [`SiameseEncoder`] | trainable siamese encoder |
//! | DPR | [`DualEncoder`] | trainable dual-tower encoder |
//!
//! All models implement [`Embedder`]: text in, unit-L2 `f32` vector out.
//! Dual-tower models distinguish `embed` (passage tower) from
//! `embed_query` (question tower).
//!
//! Everything is deterministic given the construction seed; the trainable
//! encoders converge in a few seconds of CPU time on the synthetic corpora.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types, reason = "tests may time and hash freely"))]

pub mod dual;
pub mod features;
pub mod hashed;
pub mod siamese;

pub use dual::{DualEncoder, TripletExample};
pub use features::{sentence_features, Analysis};
pub use hashed::HashedEmbedder;
pub use siamese::{PairExample, SiameseEncoder};

/// A sentence/passage embedding model. Outputs are L2-normalised so cosine
/// similarity reduces to a dot product in the vector database.
pub trait Embedder: Send + Sync {
    /// Embedding dimensionality.
    fn dim(&self) -> usize;

    /// Embed a passage (or, for single-tower models, any text).
    fn embed(&self, text: &str) -> Vec<f32>;

    /// Embed a query. Defaults to the passage tower; dual-tower models
    /// (DPR analog) override this.
    fn embed_query(&self, text: &str) -> Vec<f32> {
        self.embed(text)
    }

    /// Short identifier used in experiment tables ("SBERT", "BM25", ...).
    fn name(&self) -> &'static str;
}
