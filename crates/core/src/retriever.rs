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
    Hashed(DenseRetriever<sage_embed::HashedEmbedder>),
    /// SBERT-analog siamese encoder + flat index.
    Sbert(DenseRetriever<SiameseEncoder>),
    /// DPR-analog dual encoder + flat index.
    Dpr(DenseRetriever<DualEncoder>),
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

#[cfg(test)]
mod tests {
    //! A BM25 system's reranker shares BM25's term table instead of fitting
    //! its own: the shared table must be the one `fit_idf` fits over the
    //! same chunks, so scores and saved bytes stay what they were.

    use super::AnyRetriever;
    use crate::config::{RetrieverKind, SageConfig};
    use crate::models::tiny_models as models;
    use crate::pipeline::RagSystem;
    use sage_corpus::datasets::{narrativeqa, triviaqa, SizeConfig};
    use sage_corpus::Dataset;
    use sage_llm::LlmProfile;
    use sage_retrieval::Bm25Retriever;
    use sage_text::Vocab;
    use std::sync::Arc;

    fn corpora() -> [Vec<String>; 2] {
        let text = |ds: Dataset| ds.documents.iter().map(|d| d.text()).collect();
        [
            text(triviaqa::generate(SizeConfig { num_docs: 20, questions_per_doc: 1, seed: 5 })),
            text(narrativeqa::generate(SizeConfig { num_docs: 2, questions_per_doc: 1, seed: 6 })),
        ]
    }

    fn bm25_sage(corpus: &[String]) -> RagSystem {
        let profile = LlmProfile::gpt4o_mini();
        RagSystem::build(models(), RetrieverKind::Bm25, SageConfig::sage(), profile, corpus)
    }

    fn bm25(sys: &RagSystem) -> &Bm25Retriever {
        match &sys.retriever {
            AnyRetriever::Bm25(r) => r,
            _ => panic!("a BM25 system"),
        }
    }

    fn scorer_idf(sys: &RagSystem) -> &Arc<Vocab> {
        sys.scorer.as_ref().expect("the SAGE config keeps a scorer").idf()
    }

    fn assert_same_table(a: &Vocab, b: &Vocab) {
        assert_eq!(a.terms(), b.terms());
        assert_eq!(a.doc_freqs(), b.doc_freqs());
        assert_eq!(a.num_docs(), b.num_docs());
    }

    /// The scorer holds BM25's table itself, and it equals a fresh fit.
    fn assert_shared_and_fitted(sys: &RagSystem) {
        assert!(Arc::ptr_eq(scorer_idf(sys), bm25(sys).vocab()), "shared, not copied");
        let mut fitted = models().scorer.clone();
        fitted.fit_idf(sys.chunks());
        assert_same_table(scorer_idf(sys), fitted.idf());
    }

    #[test]
    fn a_bm25_build_shares_the_table_fit_idf_fits() {
        for corpus in corpora() {
            assert_shared_and_fitted(&bm25_sage(&corpus));
        }
    }

    #[test]
    fn add_documents_shares_the_rebuilt_table() {
        for corpus in corpora() {
            let (first, rest) = corpus.split_at(corpus.len() / 2);
            let mut sys = bm25_sage(first);
            let built = Arc::clone(scorer_idf(&sys));
            sys.add_documents(models(), rest);
            assert_shared_and_fitted(&sys);
            assert!(scorer_idf(&sys).num_docs() > built.num_docs());
        }
    }

    #[test]
    fn saved_bytes_equal_those_of_a_fitted_scorer() {
        for corpus in corpora() {
            let mut sys = bm25_sage(&corpus);
            let shared = sys.to_bytes();
            let chunks = sys.chunks.clone();
            sys.scorer.as_mut().expect("a scorer").fit_idf(&chunks);
            assert!(!Arc::ptr_eq(scorer_idf(&sys), bm25(&sys).vocab()));
            assert_eq!(shared, sys.to_bytes());
        }
    }

    #[test]
    fn a_live_chunk_leaves_the_scorer_table_unchanged() {
        let mut sys = bm25_sage(&corpora()[0]);
        let built = Vocab::clone(scorer_idf(&sys));
        let AnyRetriever::Bm25(r) = &mut sys.retriever else { panic!("a BM25 system") };
        r.push_live_chunk("Zyzzyva the heron nests above the quarry.");
        assert!(!Arc::ptr_eq(scorer_idf(&sys), bm25(&sys).vocab()), "copied on write");
        assert_same_table(scorer_idf(&sys), &built);
        assert_eq!(bm25(&sys).vocab().num_docs(), built.num_docs() + 1);
        assert!(bm25(&sys).vocab().len() > built.len(), "the new stems are BM25's alone");
    }
}
