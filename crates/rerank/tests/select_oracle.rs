//! `gradient_select` against a brute-force reading of the §V rule.
//!
//! The rule as the crate docs state it: keep `take = min(max(min_k, 1),
//! len, max_k)` chunks, then the selection is the longest prefix
//! `L ∈ [take, min(len, max_k)]` in which every chunk `i ∈ [take, L)`
//! follows a positive predecessor, scores above `g · s[i-1]`, and scores at
//! least `floor_ratio · s[0]`. The oracle tries every `L`, longest first,
//! and checks each whole prefix; it shares no loop or early exit with the
//! implementation.

use proptest::prelude::*;
use sage_rerank::{gradient_select, RankedChunk, SelectionConfig};

/// The selection length the rule allows over the descending curve `s`.
fn oracle_len(s: &[f32], cfg: SelectionConfig) -> usize {
    let take = cfg.min_k.max(1).min(s.len()).min(cfg.max_k);
    let kept = |i: usize| {
        s[i - 1] > 0.0 && s[i] > cfg.gradient * s[i - 1] && s[i] >= cfg.floor_ratio * s[0]
    };
    (take..=s.len().min(cfg.max_k)).rev().find(|&l| (take..l).all(kept)).unwrap_or(take)
}

fn ranked(scores: &[f32]) -> Vec<RankedChunk> {
    scores.iter().enumerate().map(|(index, &score)| RankedChunk { index, score }).collect()
}

/// `gradient_select` keeps exactly the oracle's prefix of `scores`.
fn agrees(scores: &[f32], cfg: SelectionConfig) {
    let ranked = ranked(scores);
    let selected = gradient_select(&ranked, cfg);
    assert_eq!(selected.len(), oracle_len(scores, cfg), "{scores:?} {cfg:?}");
    for (got, want) in selected.iter().zip(&ranked) {
        assert_eq!((got.index, got.score.to_bits()), (want.index, want.score.to_bits()));
    }
}

/// A score: mostly uniform in `[-1, 1)`, often a zero, a tie or an exact
/// ratio of another score, so the strict comparisons are hit at equality.
fn score() -> impl Strategy<Value = f32> {
    prop_oneof![
        4 => -1.0f32..1.0,
        1 => Just(0.0f32),
        1 => Just(0.25f32),
        1 => Just(0.5f32),
        1 => Just(1.0f32),
    ]
}

/// A ratio in `[0, 1]`, endpoints included.
fn unit() -> impl Strategy<Value = f32> {
    prop_oneof![Just(0.0f32), Just(0.5f32), Just(1.0f32), 0.0f32..1.0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn selection_is_the_longest_prefix_the_rule_allows(
        mut scores in proptest::collection::vec(score(), 0..30),
        min_k in 0usize..25,
        max_k in 0usize..25,
        gradient in unit(),
        floor_ratio in unit(),
    ) {
        scores.sort_by(|a, b| b.total_cmp(a));
        agrees(&scores, SelectionConfig { min_k, gradient, max_k, floor_ratio });
    }
}

/// Each comparison at equality: a tie under `g = 1`, an exact half under
/// `g = 0.5`, a zero under `g = 0`, the floor itself, and a zero
/// predecessor.
#[test]
fn boundaries_of_each_comparison() {
    let cfg = |gradient, floor_ratio| SelectionConfig { min_k: 1, gradient, max_k: 10, floor_ratio };
    let cases: [(&[f32], SelectionConfig, usize); 5] = [
        (&[0.5, 0.5, 0.5], cfg(1.0, 0.0), 1),
        (&[1.0, 0.5, 0.25], cfg(0.5, 0.0), 1),
        (&[1.0, 0.0], cfg(0.0, 0.0), 1),
        (&[1.0, 0.5, 0.25], cfg(0.0, 0.25), 3),
        (&[0.0, 0.0], cfg(0.0, 0.0), 1),
    ];
    for (scores, cfg, want) in cases {
        assert_eq!(oracle_len(scores, cfg), want, "{scores:?} {cfg:?}");
        agrees(scores, cfg);
    }
}
