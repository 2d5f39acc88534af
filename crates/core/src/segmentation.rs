//! Corpus segmentation for [`RagSystem::build`](crate::pipeline::RagSystem::build)
//! and `add_documents` (Figure 2 (A), steps 1–2), on every core.
//!
//! Segmenting a document reads only that document and the shared, immutable
//! model, so the corpus is cut into contiguous document ranges of about equal
//! bytes, each range is segmented (and its tokens counted) on its own scoped
//! thread, and the ranges' chunk lists are appended in range order: the chunk
//! list — and everything built from it — is the one-worker list at any worker
//! count. The index build that follows runs on chunk ranges in the same way
//! ([`crate::indexing`]), through [`on_ranges`].

#![expect(
    clippy::disallowed_methods,
    reason = "segmentation workers time themselves for BuildStats; nothing branches on the readings"
)]

use crate::config::SageConfig;
use crate::models::TrainedModels;
use crate::result::PhaseTime;
use sage_segment::{Segmenter, SemanticSegmenter, SentenceSegmenter};
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

/// One worker per core this process may run on.
pub(crate) fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Run `work` on each of `ranges` — the first on the caller's thread, each
/// other on its own scoped thread — and return the results in range order.
/// One range spawns no thread. A worker's panic is re-raised here, in range
/// order, as the serial loop would have raised it.
pub(crate) fn on_ranges<T: Send, R: Send>(ranges: Vec<T>, work: impl Fn(T) -> R + Sync) -> Vec<R> {
    let mut ranges = ranges.into_iter();
    let Some(first) = ranges.next() else {
        return Vec::new();
    };
    if ranges.len() == 0 {
        return vec![work(first)];
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges.map(|range| scope.spawn(move || work(range))).collect();
        let mut results = Vec::with_capacity(handles.len() + 1);
        results.push(work(first));
        for handle in handles {
            let result = handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            results.push(result);
        }
        results
    })
}

/// A segmented corpus.
pub(crate) struct Segmented {
    /// The chunk list, in document order.
    pub chunks: Vec<String>,
    /// The corpus's size in LLM tokens, counted on the workers.
    pub corpus_tokens: usize,
    /// The wall time, and the workers' summed busy time.
    pub time: PhaseTime,
}

/// Segment `corpus` with the strategy `config` selects — the semantic model,
/// or sentence-aligned chunks up to the naive token budget — on up to
/// `workers` threads.
pub(crate) fn segment_corpus(
    models: &TrainedModels,
    config: &SageConfig,
    corpus: &[String],
    workers: usize,
) -> Segmented {
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
/// [`Segmenter::segment_documents`] on [`on_ranges`], and the lists are
/// appended in range order, each chunk moved once.
fn in_document_order(segmenter: &dyn Segmenter, corpus: &[String], workers: usize) -> Segmented {
    let start = Instant::now();
    let ranges = byte_ranges(corpus, workers.min(corpus.len()));
    let mut parts = on_ranges(ranges, |range| {
        let worker_start = Instant::now();
        let chunks = segmenter.segment_documents(range);
        let tokens: usize = range.iter().map(|doc| sage_text::count_tokens(doc)).sum();
        (chunks, tokens, worker_start.elapsed())
    });
    let corpus_tokens = parts.iter().map(|part| part.1).sum();
    let busy = parts.iter().map(|part| part.2).sum::<Duration>();
    let chunks = if parts.len() == 1 {
        parts.swap_remove(0).0
    } else {
        let mut chunks = Vec::with_capacity(parts.iter().map(|part| part.0.len()).sum());
        for (part, ..) in parts {
            chunks.extend(part);
        }
        chunks
    };
    let time = PhaseTime { wall: start.elapsed(), busy };
    Segmented { chunks, corpus_tokens, time }
}

/// Cut `corpus` into at most `parts` contiguous, non-empty ranges of about
/// equal byte length: range `k` ends at the first document where the running
/// byte count reaches `k / parts` of the whole.
pub(crate) fn byte_ranges<T: AsRef<str>>(corpus: &[T], parts: usize) -> Vec<&[T]> {
    let total: usize = corpus.iter().map(|doc| doc.as_ref().len()).sum();
    let mut ranges = Vec::with_capacity(parts);
    let (mut rest, mut seen) = (corpus, 0);
    for k in 1..parts {
        let goal = total * k / parts;
        let mut take = 0;
        while take < rest.len() && seen < goal {
            seen += rest[take].as_ref().len();
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
    use crate::indexing::chunk_ranges;
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
                assert_eq!(one.chunks.is_empty(), corpus.is_empty());
                for workers in WORKERS {
                    let many = segment_corpus(models(), &config, &corpus, workers);
                    let what = format!("{workers} workers over {} documents", corpus.len());
                    assert_eq!(many.chunks, one.chunks, "{what}");
                    assert_eq!(many.corpus_tokens, one.corpus_tokens, "{what}");
                    let tokens: usize = corpus.iter().map(|d| sage_text::count_tokens(d)).sum();
                    assert_eq!(many.corpus_tokens, tokens, "{what}");
                }
            }
        }
    }

    #[test]
    fn semantic_chunks_are_built_at_their_exact_length() {
        for corpus in corpora() {
            for workers in [1, 2] {
                let segmented = segment_corpus(models(), &SageConfig::sage(), &corpus, workers);
                for chunk in segmented.chunks {
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

    /// A TriviaQA corpus of many documents, cut into several 64-chunk
    /// ranges at two workers, and a one-document NarrativeQA corpus.
    fn index_corpora() -> [Vec<String>; 2] {
        let text = |ds: Dataset| ds.documents.iter().map(|d| d.text()).collect();
        [
            text(triviaqa::generate(SizeConfig { num_docs: 64, questions_per_doc: 1, seed: 7 })),
            text(narrativeqa::generate(SizeConfig { num_docs: 1, questions_per_doc: 1, seed: 8 })),
        ]
    }

    /// Everything the ranged index build writes, compared with `one`'s.
    fn assert_same_build(sys: &RagSystem, one: &RagSystem, what: &str) {
        assert_eq!(sys.chunks(), one.chunks(), "{what}");
        let rows = |sys: &RagSystem| sys.dense_state().map(|(_, index)| index.to_bytes());
        assert!(rows(sys) == rows(one), "{what}: FlatIndex bytes");
        let (idf, one_idf) = (sys.scorer_ref().map(|s| s.idf()), one.scorer_ref().map(|s| s.idf()));
        assert_eq!(idf.map(|t| t.terms()), one_idf.map(|t| t.terms()), "{what}");
        assert_eq!(idf.map(|t| t.doc_freqs()), one_idf.map(|t| t.doc_freqs()), "{what}");
        assert_eq!(idf.map(|t| t.num_docs()), one_idf.map(|t| t.num_docs()), "{what}");
        assert!(sys.to_bytes() == one.to_bytes(), "{what}: saved bytes");
    }

    #[test]
    fn ranged_index_builds_equal_the_one_worker_build() {
        let [many, single] = index_corpora();
        for kind in RetrieverKind::all() {
            for corpus in [&many, &single] {
                let built = |workers| {
                    let (config, profile) = (SageConfig::sage(), LlmProfile::gpt4o_mini());
                    RagSystem::build_on(models(), kind, config, profile, corpus, workers)
                };
                let one = built(1);
                let blocks = one.chunks().len().div_ceil(64);
                if corpus.len() > 1 {
                    assert_eq!(chunk_ranges(one.chunks().len(), 3).len(), 3, "{blocks} blocks");
                }
                // More workers than 64-chunk blocks, too.
                for workers in [2, 3, blocks + 1] {
                    let docs = corpus.len();
                    let what = format!("{kind:?} over {docs} documents at {workers} workers");
                    assert_same_build(&built(workers), &one, &what);
                }
            }
        }
    }

    #[test]
    fn add_documents_after_a_split_build_equals_the_one_worker_path() {
        let [many, _] = index_corpora();
        let (first, rest) = many.split_at(many.len() / 2);
        for kind in RetrieverKind::all() {
            let grown = |workers| {
                let (config, profile) = (SageConfig::sage(), LlmProfile::gpt4o_mini());
                let mut sys = RagSystem::build_on(models(), kind, config, profile, first, workers);
                sys.add_documents_on(models(), rest, workers);
                sys
            };
            let one = grown(1);
            for workers in [2, 3] {
                assert_same_build(&grown(workers), &one, &format!("{kind:?} at {workers} workers"));
            }
        }
    }

    #[test]
    fn chunk_ranges_start_on_blocks_and_cover_the_list() {
        for (len, parts) in [(0, 2), (63, 2), (127, 2), (128, 2), (1000, 3), (1000, 64), (200, 0)] {
            let ranges = chunk_ranges(len, parts);
            assert!(ranges.len() <= parts.max(1), "{len} chunks, {parts} parts: {ranges:?}");
            let mut next = 0;
            for range in &ranges {
                assert!(range.start == next && range.start.is_multiple_of(64), "{range:?}");
                assert!(range.end > range.start, "{range:?}");
                next = range.end;
            }
            assert_eq!(next, len, "{len} chunks, {parts} parts: {ranges:?}");
        }
        assert_eq!(chunk_ranges(127, 2).len(), 1, "one range below two blocks");
        assert_eq!(chunk_ranges(1000, 3), [0..320, 320..640, 640..1000]);
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
        assert!(byte_ranges::<String>(&[], 0).is_empty());
    }
}
