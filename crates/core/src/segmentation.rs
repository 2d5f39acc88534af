//! Corpus segmentation for [`RagSystem::build`](crate::pipeline::RagSystem::build)
//! and `add_documents` (Figure 2 (A), steps 1–2), on every core.
//!
//! Segmenting a document reads only that document and the shared, immutable
//! model, so the corpus is cut into contiguous document ranges of about equal
//! bytes, each range is segmented on its own scoped thread, and the ranges'
//! chunk lists are appended in range order: the chunk list — and everything
//! built from it — is the one-worker list at any worker count.

use crate::config::SageConfig;
use crate::models::TrainedModels;
use sage_segment::{Segmenter, SemanticSegmenter, SentenceSegmenter};
use std::num::NonZeroUsize;

/// One worker per core this process may run on.
pub(crate) fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Segment `corpus` with the strategy `config` selects — the semantic model,
/// or sentence-aligned chunks up to the naive token budget — on up to
/// `workers` threads.
pub(crate) fn segment_corpus(
    models: &TrainedModels,
    config: &SageConfig,
    corpus: &[String],
    workers: usize,
) -> Vec<String> {
    if config.use_segmentation {
        let segmenter = SemanticSegmenter::with_params(
            models.segmentation.clone(),
            config.segmentation_threshold,
            config.coarse_tokens,
        );
        in_document_order(&segmenter, corpus, workers)
    } else {
        let segmenter = SentenceSegmenter { max_tokens: config.naive_chunk_tokens };
        in_document_order(&segmenter, corpus, workers)
    }
}

/// Segment `corpus` on at most `workers` threads, never more than one per
/// document: each of [`byte_ranges`] goes through
/// [`Segmenter::segment_documents`], the first on the caller's thread, and
/// the lists are appended in range order, each chunk moved once. One range
/// spawns no thread. A worker's panic is re-raised here, in range order,
/// as the serial loop would have raised it.
fn in_document_order(segmenter: &dyn Segmenter, corpus: &[String], workers: usize) -> Vec<String> {
    let ranges = byte_ranges(corpus, workers.min(corpus.len()));
    let Some((&first, rest)) = ranges.split_first() else {
        return Vec::new();
    };
    if rest.is_empty() {
        return segmenter.segment_documents(first);
    }
    let parts: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter()
            .map(|&range| scope.spawn(move || segmenter.segment_documents(range)))
            .collect();
        let mut parts = vec![segmenter.segment_documents(first)];
        for handle in handles {
            parts.push(handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        parts
    });
    let mut chunks = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        chunks.extend(part);
    }
    chunks
}

/// Cut `corpus` into at most `parts` contiguous, non-empty ranges of about
/// equal byte length: range `k` ends at the first document where the running
/// byte count reaches `k / parts` of the whole.
fn byte_ranges(corpus: &[String], parts: usize) -> Vec<&[String]> {
    let total: usize = corpus.iter().map(String::len).sum();
    let mut ranges = Vec::with_capacity(parts);
    let (mut rest, mut seen) = (corpus, 0);
    for k in 1..parts {
        let goal = total * k / parts;
        let mut take = 0;
        while take < rest.len() && seen < goal {
            seen += rest[take].len();
            take += 1;
        }
        let (range, tail) = rest.split_at(take);
        ranges.push(range);
        rest = tail;
    }
    ranges.push(rest);
    ranges.retain(|range| !range.is_empty());
    ranges
}

#[cfg(test)]
mod tests {
    //! The chunk list, and every saved byte built from it, is the one-worker
    //! one at any worker count.

    use super::{byte_ranges, segment_corpus};
    use crate::config::{RetrieverKind, SageConfig};
    use crate::models::tiny_models as models;
    use crate::pipeline::RagSystem;
    use sage_corpus::datasets::{narrativeqa, triviaqa, SizeConfig};
    use sage_corpus::Dataset;
    use sage_llm::LlmProfile;

    /// Two and three workers, and more workers than documents.
    const WORKERS: [usize; 3] = [2, 3, 64];

    /// Seeded TriviaQA and NarrativeQA corpora, an empty one and a
    /// one-document one.
    fn corpora() -> [Vec<String>; 4] {
        let text = |ds: Dataset| ds.documents.iter().map(|d| d.text()).collect();
        [
            text(triviaqa::generate(SizeConfig { num_docs: 12, questions_per_doc: 1, seed: 5 })),
            text(narrativeqa::generate(SizeConfig { num_docs: 3, questions_per_doc: 1, seed: 6 })),
            Vec::new(),
            vec!["Whiskers is a cat. He has green eyes.\nIt rained over Ashford.".to_string()],
        ]
    }

    #[test]
    fn chunk_lists_are_equal_at_every_worker_count() {
        for config in [SageConfig::sage(), SageConfig::naive_rag()] {
            for corpus in corpora() {
                let one = segment_corpus(models(), &config, &corpus, 1);
                assert_eq!(one.is_empty(), corpus.is_empty());
                for workers in WORKERS {
                    let many = segment_corpus(models(), &config, &corpus, workers);
                    assert_eq!(many, one, "{workers} workers over {} documents", corpus.len());
                }
            }
        }
    }

    #[test]
    fn semantic_chunks_are_built_at_their_exact_length() {
        for corpus in corpora() {
            for workers in [1, 2] {
                for chunk in segment_corpus(models(), &SageConfig::sage(), &corpus, workers) {
                    assert_eq!(chunk.capacity(), chunk.len(), "{chunk:?}");
                }
            }
        }
    }

    #[test]
    fn saved_systems_are_byte_equal_at_every_worker_count() {
        let [corpus, ..] = corpora();
        for kind in [RetrieverKind::Bm25, RetrieverKind::OpenAiSim] {
            let saved = |workers| {
                let profile = LlmProfile::gpt4o_mini();
                RagSystem::build_on(models(), kind, SageConfig::sage(), profile, &corpus, workers)
                    .to_bytes()
            };
            let one = saved(1);
            for workers in WORKERS {
                assert!(saved(workers) == one, "{kind:?} at {workers} workers");
            }
        }
    }

    #[test]
    fn ranges_are_contiguous_non_empty_and_balanced_by_bytes() {
        let docs: Vec<String> = [10, 10, 10, 10, 100, 1, 1].iter().map(|&n| "x".repeat(n)).collect();
        for parts in 1..=docs.len() {
            let ranges = byte_ranges(&docs, parts);
            assert!(ranges.len() <= parts && ranges.iter().all(|r| !r.is_empty()), "{parts}");
            assert_eq!(ranges.concat(), docs);
        }
        let lens: Vec<usize> = byte_ranges(&docs, 2).iter().map(|r| r.len()).collect();
        assert_eq!(lens, [5, 2]);
        assert!(byte_ranges(&[], 0).is_empty());
    }
}
