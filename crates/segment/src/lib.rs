//! # sage-segment
//!
//! Corpus segmentation (paper §IV) — SAGE's first contribution (C1).
//!
//! * [`SegmentationModel`] — the paper's Figure-4 architecture: a trainable
//!   sentence embedder, a feature-augmentation module producing
//!   `(x₁, x₂, x₁−x₂, x₁·x₂)`, and an MLP scoring head. Trained per
//!   Algorithm 1 on `(s₁, s₂, same-paragraph?)` pairs with MSE, updating
//!   both the embedder and the MLP.
//! * [`FeatureConfig`] — toggles the augmented features for the Table X
//!   ablation.
//! * [`Segmenter`] implementations:
//!   [`FixedLengthSegmenter`] (Figure 3-A: cuts mid-sentence),
//!   [`SentenceSegmenter`] (Figure 3-B/C: whole sentences up to a length
//!   budget — the paper's Naive RAG uses this at 200 tokens),
//!   [`SemanticSegmenter`] (Figure 3-D / §IV-E: each paragraph cut where
//!   the model scores an adjacent sentence pair below the threshold `ss`,
//!   or once a chunk has passed `l` tokens).

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types, reason = "tests may time and hash freely"))]

pub mod model;
pub mod segmenter;

pub use model::{FeatureConfig, SegmentationModel, TrainReport};
pub use segmenter::{FixedLengthSegmenter, Segmenter, SemanticSegmenter, SentenceSegmenter};

/// FNV-1a fingerprint of a document's text — the dirty-document check in
/// `sage-core`'s live-corpus writer. An upsert whose fingerprint matches
/// the stored one is a no-op, so only changed documents pay the
/// re-segmentation and re-embedding cost.
pub fn fingerprint(text: &str) -> u64 {
    sage_text::ngram::fnv1a(text.as_bytes(), 0)
}

#[cfg(test)]
mod fingerprint_tests {
    use super::fingerprint;

    #[test]
    fn fingerprint_separates_texts_and_is_stable() {
        // Feeds the live store's digest, which its soak logs print: pinned.
        assert_eq!(fingerprint("the cat sat"), 0xA025_52C1_6CDE_A15C);
        assert_ne!(fingerprint("the cat sat"), fingerprint("the cat sat."));
        assert_ne!(fingerprint(""), fingerprint(" "));
    }
}
