//! # sage-rerank
//!
//! Second-stage reranking and chunk selection (paper §V) — SAGE's second
//! contribution (C2).
//!
//! * [`CrossScorer`] — the "sophisticated reranking model": a trained MLP
//!   over cross features of the (question, chunk) pair (IDF-weighted
//!   overlap, bigram overlap, embedding cosine, entity match, …). Where the
//!   paper fine-tunes a BGE-style cross-encoder, we train this scorer on
//!   the same kind of (question, positive, negative) supervision; it
//!   produces the Figure-5 score patterns the selection algorithm needs
//!   (sharp dip after the relevant chunks for focused questions, smooth
//!   slopes for broad ones).
//! * [`gradient_select`] — Algorithm 2: keep the top `min_k` chunks, then
//!   keep extending while each next score stays above `gradient` × its
//!   predecessor; stop at the first sharp relative drop.
//!
//! ### Reading of Algorithm 2's threshold
//!
//! The paper's pseudocode tests `S[i] > score / g` with `g = 0.3`, which is
//! unsatisfiable for descending scores (it would require each score to
//! *exceed* 3.3× its predecessor). The prose — "select top chunks before a
//! decrease rate of `g`" and Figure 5's "sharp decline" discussion — pins
//! the intended semantics: **keep chunk i while `S[i] > S[i-1] * g`**,
//! i.e. stop when a score falls to below 30% of its predecessor. That
//! reading selects 3 chunks for Figure 5's Article-1 and keeps extending
//! through Article-2's smooth slope, exactly as the paper describes.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types, reason = "tests may time and hash freely"))]

pub mod scorer;
pub mod select;

pub use scorer::CrossScorer;
pub use select::{gradient_select, SelectionConfig};

/// A reranked chunk: index into the candidate list plus relevance score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedChunk {
    /// Index into the chunk list the reranker was given.
    pub index: usize,
    /// Relevance score in `[0, 1]`, higher = more relevant.
    pub score: f32,
}
