//! The closed set of retriever backends a [`crate::pipeline::RagSystem`]
//! can hold.

use crate::config::RetrieverKind;
use crate::models::TrainedModels;
use sage_embed::{DualEncoder, HashedEmbedder, SiameseEncoder};
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

    /// An empty retriever of `kind`: the OpenAI analog's default hashed
    /// embedder, or the trained SBERT / DPR analog of `models`.
    pub(crate) fn empty(kind: RetrieverKind, models: &TrainedModels) -> Self {
        match kind {
            RetrieverKind::Bm25 => AnyRetriever::Bm25(Bm25Retriever::new()),
            RetrieverKind::OpenAiSim => {
                AnyRetriever::Hashed(DenseRetriever::new(HashedEmbedder::default_model()))
            }
            RetrieverKind::Sbert => AnyRetriever::Sbert(DenseRetriever::new(models.siamese.clone())),
            RetrieverKind::Dpr => AnyRetriever::Dpr(DenseRetriever::new(models.dual.clone())),
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
    //! its own, and a dense system's takes its table beside the rows, from
    //! the same analysis of each chunk: either table must be the one
    //! `fit_idf` fits over the same chunks, so scores and saved bytes stay
    //! what they were.

    use super::AnyRetriever;
    use crate::config::{RetrieverKind, SageConfig};
    use crate::indexing::chunk_ranges;
    use crate::models::tiny_models as models;
    use crate::pipeline::RagSystem;
    use sage_corpus::datasets::{narrativeqa, triviaqa, SizeConfig};
    use sage_corpus::Dataset;
    use sage_llm::LlmProfile;
    use sage_retrieval::{Bm25Retriever, Retriever};
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

    /// The scorer's table equals a fresh fit.
    fn assert_fitted(sys: &RagSystem) {
        let mut fitted = models().scorer.clone();
        fitted.fit_idf(sys.chunks());
        assert_same_table(scorer_idf(sys), fitted.idf());
    }

    /// The scorer holds BM25's table itself, and it equals a fresh fit.
    fn assert_shared_and_fitted(sys: &RagSystem) {
        assert!(Arc::ptr_eq(scorer_idf(sys), bm25(sys).vocab()), "shared, not copied");
        assert_fitted(sys);
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

    /// A dense build, whole and grown by `add_documents`, on one range and
    /// on three 64-chunk-aligned ranges.
    #[test]
    fn a_dense_build_takes_the_table_fit_idf_fits() {
        let size = SizeConfig { num_docs: 64, questions_per_doc: 1, seed: 7 };
        let corpus: Vec<String> = triviaqa::generate(size).documents.iter().map(|d| d.text()).collect();
        let (first, rest) = corpus.split_at(corpus.len() / 2);
        for kind in [RetrieverKind::OpenAiSim, RetrieverKind::Sbert, RetrieverKind::Dpr] {
            for workers in [1, 3] {
                let built = |corpus: &[String]| {
                    let (config, profile) = (SageConfig::sage(), LlmProfile::gpt4o_mini());
                    RagSystem::build_on(models(), kind, config, profile, corpus, workers)
                };
                let mut sys = built(&corpus);
                assert_eq!(chunk_ranges(sys.chunks().len(), workers).len(), workers);
                assert_fitted(&sys);
                let mut grown = built(first);
                grown.add_documents_on(models(), rest, workers);
                assert_eq!(grown.chunks(), sys.chunks(), "{kind:?} at {workers} workers");
                assert_fitted(&grown);
                let saved = sys.to_bytes();
                let chunks = sys.chunks.clone();
                sys.scorer.as_mut().expect("a scorer").fit_idf(&chunks);
                assert!(sys.to_bytes() == saved, "{kind:?} at {workers} workers: saved bytes");
            }
        }
    }

    /// BM25 reindexed over the system's chunks and one more: the scorer
    /// keeps the table it was handed.
    #[test]
    fn a_live_chunk_leaves_the_scorer_table_unchanged() {
        let mut sys = bm25_sage(&corpora()[0]);
        let built = Vocab::clone(scorer_idf(&sys));
        let mut chunks = sys.chunks.clone();
        chunks.push("Zyzzyva the heron nests above the quarry.".to_string());
        let AnyRetriever::Bm25(r) = &mut sys.retriever else { panic!("a BM25 system") };
        r.index(&chunks);
        assert!(!Arc::ptr_eq(scorer_idf(&sys), bm25(&sys).vocab()), "a table of its own");
        assert_same_table(scorer_idf(&sys), &built);
        assert_eq!(bm25(&sys).vocab().num_docs(), built.num_docs() + 1);
        assert!(bm25(&sys).vocab().len() > built.len(), "the new stems are BM25's alone");
    }
}
