//! Segmenters — the three strategies of the paper's Figure 3 plus the
//! semantic strategy of Figure 3-D.

use crate::model::{Scratch, SegmentationModel};
use sage_text::{count_tokens, split_paragraphs, split_sentences};

/// Splits a document's text into retrieval chunks.
pub trait Segmenter: Send + Sync {
    /// Segment `text` into chunks (in document order, covering all text).
    fn segment(&self, text: &str) -> Vec<String>;

    /// Display name for tables.
    fn name(&self) -> String;
}

/// Figure 3-A: cut every `max_tokens` words, mid-sentence. The worst
/// strategy; kept as an ablation baseline.
#[derive(Debug, Clone, Copy)]
pub struct FixedLengthSegmenter {
    /// Chunk size in whitespace tokens.
    pub max_tokens: usize,
}

impl Segmenter for FixedLengthSegmenter {
    fn segment(&self, text: &str) -> Vec<String> {
        assert!(self.max_tokens > 0);
        let words: Vec<&str> = text.split_whitespace().collect();
        words.chunks(self.max_tokens).map(|c| c.join(" ")).collect()
    }

    fn name(&self) -> String {
        format!("fixed-{}", self.max_tokens)
    }
}

/// Figure 3-B/C: greedy sentence packing up to a token budget — sentences
/// are never split, but semantic units can still straddle chunk borders.
/// The paper's Naive RAG baseline uses this with a 200-token budget.
#[derive(Debug, Clone, Copy)]
pub struct SentenceSegmenter {
    /// Token budget per chunk (LLM-token estimate, [`count_tokens`]).
    pub max_tokens: usize,
}

impl SentenceSegmenter {
    /// The paper's Naive RAG configuration (200 tokens).
    pub fn naive_rag() -> Self {
        Self { max_tokens: 200 }
    }
}

impl Segmenter for SentenceSegmenter {
    fn segment(&self, text: &str) -> Vec<String> {
        assert!(self.max_tokens > 0);
        let mut chunks = Vec::new();
        let mut current = String::new();
        let mut current_tokens = 0usize;
        for paragraph in split_paragraphs(text) {
            for sentence in split_sentences(paragraph) {
                let t = count_tokens(sentence);
                if current_tokens + t > self.max_tokens && !current.is_empty() {
                    chunks.push(std::mem::take(&mut current));
                    current_tokens = 0;
                }
                if !current.is_empty() {
                    current.push(' ');
                }
                current.push_str(sentence);
                current_tokens += t;
            }
        }
        if !current.is_empty() {
            chunks.push(current);
        }
        chunks
    }

    fn name(&self) -> String {
        format!("sentence-{}", self.max_tokens)
    }
}

/// Figure 3-D / §IV-E: semantic segmentation, paragraph by paragraph.
///
/// ```
/// use sage_segment::{FeatureConfig, SegmentationModel, Segmenter, SemanticSegmenter};
///
/// // An untrained model still produces a valid (if arbitrary) chunking;
/// // see `SegmentationModel::train` / Algorithm 1 for the real thing.
/// let model = SegmentationModel::new(256, 8, 8, FeatureConfig::default(), 7);
/// let segmenter = SemanticSegmenter::new(model);
/// let chunks = segmenter.segment("One sentence. Another sentence.\nA new paragraph.");
/// assert!(!chunks.is_empty());
/// ```
///
/// 1. Split the text into paragraphs on `'\n'` (§III-A) and each paragraph
///    into sentences; a chunk never spans two paragraphs.
/// 2. Score every adjacent sentence pair of the paragraph with the trained
///    [`SegmentationModel`] — each sentence pooled once, all pairs in one
///    forward.
/// 3. Walk the sentences: cut before a sentence when its pair scores below
///    the threshold `ss` (default 0.55), or when the running chunk has
///    already passed `coarse_tokens` (the paper's `l`, default 400) —
///    unless that sentence opens with a pronoun, which vetoes either cut.
///
/// So `coarse_tokens` is not an upper bound on chunk size: a chunk is cut
/// only *after* it has passed `l`, and a run of pronoun-initial sentences
/// keeps extending it.
pub struct SemanticSegmenter {
    model: SegmentationModel,
    /// Segmentation score threshold `ss` (§IV-D).
    pub threshold: f32,
    /// Coarse chunk length `l` in tokens (§IV-E): a chunk that has passed
    /// it is cut at the next sentence the pronoun guard allows.
    pub coarse_tokens: usize,
}

impl SemanticSegmenter {
    /// Wrap a trained model with the paper-default hyper-parameters
    /// (`ss = 0.55`, `l = 400`).
    pub fn new(model: SegmentationModel) -> Self {
        Self { model, threshold: 0.55, coarse_tokens: 400 }
    }

    /// Override the threshold and coarse length.
    pub fn with_params(model: SegmentationModel, threshold: f32, coarse_tokens: usize) -> Self {
        Self { model, threshold, coarse_tokens }
    }

    /// Borrow the underlying model.
    pub fn model(&self) -> &SegmentationModel {
        &self.model
    }

    /// Whether a sentence opens with an unresolved pronoun — cutting before
    /// it would orphan the coreference (the exact Figure-3-B failure SAGE
    /// exists to avoid), so such cuts are vetoed regardless of the model
    /// score.
    fn starts_with_pronoun(sentence: &str) -> bool {
        const PRONOUNS: &[&str] =
            &["he", "she", "it", "his", "her", "its", "they", "their", "the eyes"];
        // An ASCII-case-insensitive prefix match is what lowercasing the
        // sentence first finds: no character outside ASCII lowercases into
        // one of these pronouns (tests/oracle.rs scans them all).
        PRONOUNS.iter().any(|p| {
            sentence.as_bytes().get(..p.len()).is_some_and(|head| head.eq_ignore_ascii_case(p.as_bytes()))
                && sentence[p.len()..].chars().next().is_none_or(|c| !c.is_alphanumeric())
        })
    }

    /// Segment one paragraph's sentences at score dips into `out`: after a
    /// sentence the chunk is cut when the model scores the pair below the
    /// threshold, or the chunk has already passed `coarse_tokens` — unless
    /// the next sentence opens with a pronoun.
    fn refine(&self, sentences: &[&str], scratch: &mut Scratch, out: &mut Vec<String>) {
        let Some((first, rest)) = sentences.split_first() else {
            return;
        };
        self.model.score_adjacent_into(sentences, scratch);
        let mut current = first.to_string();
        let mut current_tokens = count_tokens(first);
        for (sentence, &score) in rest.iter().zip(&scratch.scores) {
            let tokens = count_tokens(sentence);
            let over_budget = current_tokens > self.coarse_tokens;
            let cut = (score < self.threshold || over_budget) && !Self::starts_with_pronoun(sentence);
            if cut {
                out.push(std::mem::replace(&mut current, sentence.to_string()));
                current_tokens = tokens;
            } else {
                current.push(' ');
                current.push_str(sentence);
                current_tokens += tokens;
            }
        }
        out.push(current);
    }
}

impl Segmenter for SemanticSegmenter {
    fn segment(&self, text: &str) -> Vec<String> {
        // Paragraphs split on '\n' first (paper §III-A), then the model
        // refines within each paragraph. Cutting at paragraph borders never
        // orphans a pronoun (writers re-introduce subjects across
        // paragraphs), while mid-paragraph cuts go through the guard.
        let mut out = Vec::new();
        let mut scratch = Scratch::default();
        for paragraph in split_paragraphs(text) {
            self.refine(&split_sentences(paragraph), &mut scratch, &mut out);
        }
        out
    }

    fn name(&self) -> String {
        format!("semantic-ss{:.2}-l{}", self.threshold, self.coarse_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FeatureConfig, SegmentationModel};
    use sage_corpus::datasets::{wiki, SizeConfig};
    use sage_corpus::training::segmentation_pairs;

    const TEXT: &str = "I have a cat. His name is Whiskers and he has bright green eyes. \
                        Brone is my best friend. He enjoys sleeping when I am working.";

    #[test]
    fn fixed_length_cuts_mid_sentence() {
        let seg = FixedLengthSegmenter { max_tokens: 5 };
        let chunks = seg.segment(TEXT);
        assert!(chunks.len() > 3);
        // Mid-sentence cut: some chunk does not end with a period.
        assert!(chunks.iter().any(|c| !c.trim_end().ends_with('.')));
        // Coverage: rejoining reproduces the word sequence.
        let rejoined = chunks.join(" ");
        assert_eq!(
            rejoined.split_whitespace().collect::<Vec<_>>(),
            TEXT.split_whitespace().collect::<Vec<_>>()
        );
    }

    #[test]
    fn sentence_segmenter_keeps_sentences_whole() {
        let seg = SentenceSegmenter { max_tokens: 12 };
        let chunks = seg.segment(TEXT);
        assert!(chunks.len() >= 2);
        for c in &chunks {
            assert!(c.ends_with('.'), "chunk should end at a sentence: {c}");
        }
    }

    #[test]
    fn sentence_segmenter_respects_budget_loosely() {
        let seg = SentenceSegmenter { max_tokens: 15 };
        for c in seg.segment(TEXT) {
            // A single oversized sentence may exceed the budget, but packed
            // chunks must stay near it.
            assert!(count_tokens(&c) <= 30, "chunk too large: {c}");
        }
    }

    #[test]
    fn large_budget_single_chunk() {
        let seg = SentenceSegmenter { max_tokens: 10_000 };
        assert_eq!(seg.segment(TEXT).len(), 1);
    }

    #[test]
    fn empty_text() {
        assert!(SentenceSegmenter::naive_rag().segment("").is_empty());
        assert!(FixedLengthSegmenter { max_tokens: 10 }.segment("").is_empty());
    }

    fn trained_semantic() -> SemanticSegmenter {
        let ds = wiki::generate(SizeConfig { num_docs: 12, questions_per_doc: 0, seed: 21 });
        let pairs = segmentation_pairs(&ds.documents, 800, 3);
        let mut model = SegmentationModel::new(1024, 16, 16, FeatureConfig::default(), 5);
        model.train(&pairs, 0.05, 4);
        SemanticSegmenter::new(model)
    }

    #[test]
    fn semantic_segmenter_covers_text_and_cuts_at_topic_shifts() {
        let seg = trained_semantic();
        let ds = wiki::generate(SizeConfig { num_docs: 1, questions_per_doc: 0, seed: 99 });
        let text = ds.documents[0].text();
        let chunks = seg.segment(&text);
        assert!(chunks.len() > 1, "should produce several chunks");
        // Coverage: every sentence appears in exactly one chunk.
        let n_sentences: usize = sage_text::split_paragraphs(&text)
            .iter()
            .map(|p| sage_text::split_sentences(p).len())
            .sum();
        let in_chunks: usize = chunks.iter().map(|c| sage_text::split_sentences(c).len()).sum();
        assert_eq!(n_sentences, in_chunks, "sentence count must be preserved");
        // Chunks are smaller than the naive 200-token chunks on average
        // (the cost-saving mechanism of Table XI).
        let avg: usize =
            chunks.iter().map(|c| count_tokens(c)).sum::<usize>() / chunks.len();
        assert!(avg < 200, "semantic chunks should be small, got {avg}");
    }

    #[test]
    fn semantic_segmenter_name_reflects_params() {
        let seg = trained_semantic();
        assert!(seg.name().starts_with("semantic-ss0.55-l400"));
    }
}
