//! SAGE configuration — the paper's §VII-A hyper-parameters and the module
//! toggles used by the Table IV ablation.

/// Which first-stage retriever a system uses (paper §VII-A "Retrievers").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrieverKind {
    /// OpenAI `text-embedding-3-small` analog (feature-hashed encoder) —
    /// SAGE's default retriever.
    OpenAiSim,
    /// SBERT analog (trained siamese encoder).
    Sbert,
    /// DPR analog (trained dual-tower encoder).
    Dpr,
    /// Okapi BM25 inverted index.
    Bm25,
}

impl RetrieverKind {
    /// Parse a CLI / scenario-grid token ("openai" | "sbert" | "dpr" | "bm25").
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "openai" | "hashed" => Some(Self::OpenAiSim),
            "sbert" => Some(Self::Sbert),
            "dpr" => Some(Self::Dpr),
            "bm25" => Some(Self::Bm25),
            _ => None,
        }
    }

    /// Display name used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            RetrieverKind::OpenAiSim => "OpenAI Embedding",
            RetrieverKind::Sbert => "SBERT",
            RetrieverKind::Dpr => "DPR",
            RetrieverKind::Bm25 => "BM25",
        }
    }

    /// All four retrievers, in the paper's table order.
    pub fn all() -> [RetrieverKind; 4] {
        [RetrieverKind::Sbert, RetrieverKind::Bm25, RetrieverKind::Dpr, RetrieverKind::OpenAiSim]
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SageConfig {
    /// Segmentation score threshold `ss` (§IV-D). Default 0.55.
    pub segmentation_threshold: f32,
    /// Coarse chunk length `l` in tokens (§IV-E). Default 400.
    pub coarse_tokens: usize,
    /// Initial minimum retrieved chunks `min_k` (§V-B). Default 7.
    pub min_k: usize,
    /// Gradient threshold `g` (§V-B). Default 0.3.
    pub gradient: f32,
    /// Feedback score threshold `fs` (§VI-A). Default 9.
    pub feedback_threshold: u8,
    /// Max self-feedback rounds. Default 3 (§VI-A).
    pub max_feedback_rounds: usize,
    /// Candidates fetched from the vector database (`N`). Default 32 —
    /// sized for semantic chunking's finer granularity (4-8x more chunks
    /// than 200-token chunking over the same corpus).
    pub candidates: usize,
    /// Module toggle: semantic segmentation (off ⇒ Naive RAG's 200-token
    /// sentence chunks).
    pub use_segmentation: bool,
    /// Module toggle: second-stage reranking (the BM25+BERT baseline
    /// reranks without gradient selection).
    pub use_rerank: bool,
    /// Module toggle: gradient-based selection (off ⇒ fixed top-`min_k`).
    /// Implies reranking.
    pub use_selection: bool,
    /// Module toggle: the self-feedback loop.
    pub use_feedback: bool,
    /// Naive chunk size when segmentation is off. Default 200 (§VII-A
    /// "Naive RAG").
    pub naive_chunk_tokens: usize,
}

impl Default for SageConfig {
    fn default() -> Self {
        Self {
            segmentation_threshold: 0.55,
            coarse_tokens: 400,
            min_k: 7,
            gradient: 0.3,
            feedback_threshold: 9,
            max_feedback_rounds: 3,
            candidates: 32,
            use_segmentation: true,
            use_rerank: true,
            use_selection: true,
            use_feedback: true,
            naive_chunk_tokens: 200,
        }
    }
}

impl SageConfig {
    /// Full SAGE (all modules on, paper defaults).
    pub fn sage() -> Self {
        Self::default()
    }

    /// Naive RAG: 200-token sentence chunks, fixed top-K, no feedback.
    pub fn naive_rag() -> Self {
        Self {
            use_segmentation: false,
            use_rerank: false,
            use_selection: false,
            use_feedback: false,
            ..Self::default()
        }
    }

    /// BM25+BERT-style: rerank the candidates but keep a fixed K.
    pub fn rerank_fixed_k() -> Self {
        Self { use_rerank: true, ..Self::naive_rag() }
    }

    /// Table IV row: Naive RAG + semantic segmentation only.
    pub fn naive_with_segmentation() -> Self {
        Self { use_segmentation: true, ..Self::naive_rag() }
    }

    /// Table IV row: Naive RAG + gradient selection only.
    pub fn naive_with_selection() -> Self {
        Self { use_selection: true, ..Self::naive_rag() }
    }

    /// Table IV row: Naive RAG + self-feedback only.
    pub fn naive_with_feedback() -> Self {
        Self { use_feedback: true, ..Self::naive_rag() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SageConfig::default();
        assert_eq!(c.segmentation_threshold, 0.55);
        assert_eq!(c.coarse_tokens, 400);
        assert_eq!(c.min_k, 7);
        assert_eq!(c.gradient, 0.3);
        assert_eq!(c.feedback_threshold, 9);
        assert_eq!(c.max_feedback_rounds, 3);
    }

    #[test]
    fn ablation_presets_toggle_one_module() {
        let naive = SageConfig::naive_rag();
        assert!(!naive.use_segmentation && !naive.use_selection && !naive.use_feedback);
        assert!(SageConfig::naive_with_segmentation().use_segmentation);
        assert!(!SageConfig::naive_with_segmentation().use_selection);
        assert!(SageConfig::naive_with_selection().use_selection);
        assert!(SageConfig::naive_with_feedback().use_feedback);
        let sage = SageConfig::sage();
        assert!(sage.use_segmentation && sage.use_selection && sage.use_feedback);
    }

    #[test]
    fn retriever_labels() {
        assert_eq!(RetrieverKind::Bm25.label(), "BM25");
        assert_eq!(RetrieverKind::all().len(), 4);
    }
}
