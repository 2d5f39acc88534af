//! Dense retrieval: an embedding model + a vector database (paper §II-A's
//! "Vector Database Construction" and "Retrieval" phases).
//!
//! The embedder and index types are generic, so the paper's three dense
//! retrievers are instantiations:
//!
//! ```
//! use sage_retrieval::{DenseRetriever, Retriever};
//! use sage_embed::HashedEmbedder;
//! use sage_vecdb::FlatIndex;
//!
//! let mut openai_analog =
//!     DenseRetriever::new(HashedEmbedder::default_model(), FlatIndex::cosine());
//! openai_analog.index(&["a chunk".to_string(), "another chunk".to_string()]);
//! let hits = openai_analog.retrieve("which chunk?", 2);
//! assert_eq!(hits.len(), 2);
//! ```

use crate::{Retriever, ScoredChunk};
use sage_embed::Embedder;
use sage_vecdb::VectorIndex;

/// An embedding model paired with a vector index.
pub struct DenseRetriever<E, I> {
    embedder: E,
    index: I,
    indexed: usize,
}

impl<E: Embedder, I: VectorIndex> DenseRetriever<E, I> {
    /// Pair an embedder with an (empty) vector index.
    pub fn new(embedder: E, index: I) -> Self {
        Self { embedder, index, indexed: 0 }
    }

    /// Borrow the embedder (e.g. to train it before indexing).
    pub fn embedder(&self) -> &E {
        &self.embedder
    }

    /// Borrow the vector index.
    pub fn index_ref(&self) -> &I {
        &self.index
    }

    /// Reassemble from persisted parts: an embedder and an already-built
    /// index whose ids are insertion-ordered chunk indices.
    pub fn from_parts(embedder: E, index: I) -> Self
    where
        I: sage_vecdb::VectorIndex,
    {
        let indexed = index.len();
        Self { embedder, index, indexed }
    }

    /// Embed a query without searching — the first half of
    /// [`Retriever::retrieve`], split out so callers can guard the
    /// embedding and the index lookup as separate failure domains.
    pub fn embed_query(&self, query: &str) -> Vec<f32> {
        sage_telemetry::metrics::DENSE_QUERY_EMBEDS.inc();
        self.embedder.embed_query(query)
    }

    /// Search with an already-embedded query — the second half of
    /// [`Retriever::retrieve`]. `retrieve(q, n)` is exactly
    /// `search_with(&embed_query(q), n)`.
    pub fn search_with(&self, query: &[f32], n: usize) -> Vec<ScoredChunk> {
        if self.indexed == 0 || n == 0 {
            return Vec::new();
        }
        self.index
            .search(query, n)
            .into_iter()
            .map(|h| ScoredChunk { index: h.id, score: h.score })
            .collect()
    }
}

impl<E: Embedder, I: VectorIndex> Retriever for DenseRetriever<E, I> {
    fn index(&mut self, chunks: &[String]) {
        // Rebuild from scratch: chunk ids must equal slice indices.
        self.index.clear();
        self.index.reserve(chunks.len());
        self.indexed = 0;
        for chunk in chunks {
            let v = self.embedder.embed(chunk);
            let id = self.index.add(v);
            debug_assert_eq!(id, self.indexed);
            self.indexed += 1;
        }
    }

    fn retrieve(&self, query: &str, n: usize) -> Vec<ScoredChunk> {
        if self.indexed == 0 || n == 0 {
            return Vec::new();
        }
        self.search_with(&self.embed_query(query), n)
    }

    fn len(&self) -> usize {
        self.indexed
    }

    fn name(&self) -> String {
        self.embedder.name().to_string()
    }

    fn memory_bytes(&self) -> usize {
        self.index.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_embed::HashedEmbedder;
    use sage_vecdb::{FlatIndex, HnswIndex};

    fn chunks() -> Vec<String> {
        vec![
            "The cat has bright green eyes.".to_string(),
            "The dog sleeps in the yard.".to_string(),
            "Rockets fly to the moon at dawn.".to_string(),
            "The harbor town wakes early.".to_string(),
        ]
    }

    #[test]
    fn retrieves_lexically_nearest_chunk() {
        let mut r = DenseRetriever::new(HashedEmbedder::default_model(), FlatIndex::cosine());
        r.index(&chunks());
        let hits = r.retrieve("what color are the cat's eyes?", 2);
        assert_eq!(hits[0].index, 0, "{hits:?}");
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn works_with_hnsw_backend() {
        let mut r = DenseRetriever::new(HashedEmbedder::default_model(), HnswIndex::cosine());
        r.index(&chunks());
        let hits = r.retrieve("rockets to the moon", 1);
        assert_eq!(hits[0].index, 2);
    }

    #[test]
    fn reindex_resets_ids() {
        let mut r = DenseRetriever::new(HashedEmbedder::default_model(), FlatIndex::cosine());
        r.index(&chunks());
        r.index(&chunks()[..2]);
        assert_eq!(r.len(), 2);
        let hits = r.retrieve("dog in the yard", 5);
        assert!(hits.iter().all(|h| h.index < 2));
    }

    #[test]
    fn split_retrieval_matches_retrieve() {
        let mut r = DenseRetriever::new(HashedEmbedder::default_model(), FlatIndex::cosine());
        r.index(&chunks());
        let q = "what color are the cat's eyes?";
        let whole = r.retrieve(q, 3);
        let split = r.search_with(&r.embed_query(q), 3);
        assert_eq!(whole.len(), split.len());
        for (a, b) in whole.iter().zip(&split) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.score, b.score);
        }
    }

    #[test]
    fn empty_behaviour() {
        let mut r = DenseRetriever::new(HashedEmbedder::default_model(), FlatIndex::cosine());
        r.index(&[]);
        assert!(r.retrieve("anything", 3).is_empty());
        assert!(r.is_empty());
    }
}
