//! The closed set of retriever backends a [`crate::pipeline::RagSystem`]
//! can hold.

use sage_embed::{DualEncoder, SiameseEncoder};
use sage_retrieval::{Bm25Retriever, DenseRetriever, Retriever, ScoredChunk};
use sage_vecdb::FlatIndex;

/// The concrete retriever variants a [`crate::pipeline::RagSystem`] can
/// hold. A closed enum (rather than `Box<dyn Retriever>`) so built systems
/// can be persisted — each variant knows how to serialize itself.
pub enum AnyRetriever {
    /// OpenAI-analog hashed encoder + flat index.
    Hashed(DenseRetriever<sage_embed::HashedEmbedder, FlatIndex>),
    /// SBERT-analog siamese encoder + flat index.
    Sbert(DenseRetriever<SiameseEncoder, FlatIndex>),
    /// DPR-analog dual encoder + flat index.
    Dpr(DenseRetriever<DualEncoder, FlatIndex>),
    /// BM25 inverted index.
    Bm25(Bm25Retriever),
}

impl AnyRetriever {
    fn as_dyn(&self) -> &dyn Retriever {
        match self {
            AnyRetriever::Hashed(r) => r,
            AnyRetriever::Sbert(r) => r,
            AnyRetriever::Dpr(r) => r,
            AnyRetriever::Bm25(r) => r,
        }
    }

    pub(crate) fn index_chunks(&mut self, chunks: &[String]) {
        match self {
            AnyRetriever::Hashed(r) => r.index(chunks),
            AnyRetriever::Sbert(r) => r.index(chunks),
            AnyRetriever::Dpr(r) => r.index(chunks),
            AnyRetriever::Bm25(r) => r.index(chunks),
        }
    }

    pub(crate) fn retrieve(&self, query: &str, n: usize) -> Vec<ScoredChunk> {
        self.as_dyn().retrieve(query, n)
    }

    pub(crate) fn memory_bytes(&self) -> usize {
        self.as_dyn().memory_bytes()
    }

    /// Embed a query with the dense embedder (`None` for BM25) — the first
    /// half of `retrieve`, exposed as its own failure domain.
    pub(crate) fn embed_query(&self, query: &str) -> Option<Vec<f32>> {
        match self {
            AnyRetriever::Hashed(r) => Some(r.embed_query(query)),
            AnyRetriever::Sbert(r) => Some(r.embed_query(query)),
            AnyRetriever::Dpr(r) => Some(r.embed_query(query)),
            AnyRetriever::Bm25(_) => None,
        }
    }

    /// Exact flat-index search over an already-embedded query (`None` for
    /// BM25) — the second half of `retrieve`.
    pub(crate) fn search_dense(&self, query: &[f32], n: usize) -> Option<Vec<ScoredChunk>> {
        match self {
            AnyRetriever::Hashed(r) => Some(r.search_with(query, n)),
            AnyRetriever::Sbert(r) => Some(r.search_with(query, n)),
            AnyRetriever::Dpr(r) => Some(r.search_with(query, n)),
            AnyRetriever::Bm25(_) => None,
        }
    }

    /// Whether this is a dense (embedder + vector index) variant.
    pub(crate) fn is_dense(&self) -> bool {
        !matches!(self, AnyRetriever::Bm25(_))
    }

    /// The underlying flat index of dense variants.
    pub(crate) fn flat_ref(&self) -> Option<&FlatIndex> {
        match self {
            AnyRetriever::Hashed(r) => Some(r.index_ref()),
            AnyRetriever::Sbert(r) => Some(r.index_ref()),
            AnyRetriever::Dpr(r) => Some(r.index_ref()),
            AnyRetriever::Bm25(_) => None,
        }
    }

    /// Persistence hook: (embedder blob, flat-index ref) for dense
    /// variants; `None` for BM25 (which rebuilds from the chunk store).
    pub(crate) fn dense_state(&self) -> Option<(Vec<u8>, &FlatIndex)> {
        use sage_nn::BytesSerialize;
        match self {
            AnyRetriever::Hashed(r) => Some((r.embedder().to_bytes(), r.index_ref())),
            AnyRetriever::Sbert(r) => Some((r.embedder().to_bytes(), r.index_ref())),
            AnyRetriever::Dpr(r) => Some((r.embedder().to_bytes(), r.index_ref())),
            AnyRetriever::Bm25(_) => None,
        }
    }
}
