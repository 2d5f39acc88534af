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

pub mod dual;
pub mod features;
pub mod hashed;
pub mod siamese;

pub use dual::{DualEncoder, TripletExample};
pub use features::sentence_features;
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

/// Cross-query batched embedding: the surface the slot scheduler coalesces
/// same-stage embed work through. The contract is *element-wise identity*:
/// `embed_query_batch(&[a, b])` must equal
/// `[embed_query(a), embed_query(b)]` bit for bit, so batching never
/// changes a result — a real GPU backend would amortize the forward pass
/// under the same contract, while the deterministic models here amortize
/// only call overhead. The blanket impl guarantees the identity by
/// construction for every [`Embedder`].
pub trait EmbedBatch {
    /// Embed many passages; element `i` equals `embed(texts[i])` exactly.
    fn embed_batch(&self, texts: &[&str]) -> Vec<Vec<f32>>;

    /// Embed many queries; element `i` equals `embed_query(texts[i])`
    /// exactly.
    fn embed_query_batch(&self, texts: &[&str]) -> Vec<Vec<f32>>;
}

impl<E: Embedder + ?Sized> EmbedBatch for E {
    fn embed_batch(&self, texts: &[&str]) -> Vec<Vec<f32>> {
        texts.iter().map(|t| self.embed(t)).collect()
    }

    fn embed_query_batch(&self, texts: &[&str]) -> Vec<Vec<f32>> {
        texts.iter().map(|t| self.embed_query(t)).collect()
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;

    #[test]
    fn batch_is_elementwise_identical_to_singles() {
        let e = HashedEmbedder::new(32, 7);
        let texts = ["a cat sat", "the dog ran far", "quantum tea"];
        let batch = e.embed_query_batch(&texts);
        for (t, b) in texts.iter().zip(&batch) {
            assert_eq!(b, &e.embed_query(t), "batch diverged for {t:?}");
        }
        let batch = e.embed_batch(&texts);
        for (t, b) in texts.iter().zip(&batch) {
            assert_eq!(b, &e.embed(t), "passage batch diverged for {t:?}");
        }
    }
}
