//! Flexible chunk selection — the paper's future-work direction §X(3):
//! "Although SAGE selects a dynamic number of chunks, it is still possible
//! there are useless chunks, e.g., the chunk with the highest relevance
//! score is useless. Therefore, a more flexible chunk selection strategy
//! might help."
//!
//! [`FlexibleSelector`] is a trained per-chunk keep/drop classifier over
//! *list-aware* features (the chunk's score, its score relative to the top
//! and to its neighbours, its rank) plus the raw relevance score. Unlike
//! Algorithm 2 it is not constrained to select a prefix: a high-ranked
//! chunk with prefix-breaking feature patterns can be dropped and a
//! lower-ranked one kept.

use crate::RankedChunk;
use sage_nn::layer::Activation;
use sage_nn::matrix::Matrix;
use sage_nn::Mlp;

/// Number of per-chunk selection features.
pub const NUM_SELECT_FEATURES: usize = 5;

/// Compute the selection features for the chunk at `pos` of a best-first
/// ranked list:
/// 0. absolute relevance score
/// 1. score / top score
/// 2. score / predecessor score (the Algorithm-2 gradient signal)
/// 3. normalised rank (`pos / len`)
/// 4. score / successor score (cliff-ahead signal)
pub fn selection_features(ranked: &[RankedChunk], pos: usize) -> [f32; NUM_SELECT_FEATURES] {
    let score = ranked[pos].score;
    let top = ranked[0].score.max(1e-6);
    let prev = if pos == 0 { score } else { ranked[pos - 1].score }.max(1e-6);
    let next = ranked.get(pos + 1).map_or(score, |r| r.score);
    [
        score,
        (score / top).clamp(0.0, 1.0),
        (score / prev).clamp(0.0, 1.0),
        pos as f32 / ranked.len().max(1) as f32,
        if score > 1e-6 { (next / score).clamp(0.0, 1.0) } else { 0.0 },
    ]
}

/// A trained keep/drop selector.
#[derive(Debug, Clone)]
pub struct FlexibleSelector {
    mlp: Mlp,
    /// Keep threshold on the classifier probability.
    pub threshold: f32,
}

impl FlexibleSelector {
    /// Untrained selector (seeded init, threshold 0.5).
    pub fn new(seed: u64) -> Self {
        Self {
            mlp: Mlp::new(&[NUM_SELECT_FEATURES, 8, 1], Activation::Tanh, Activation::Sigmoid, seed),
            threshold: 0.5,
        }
    }

    /// Keep-probability for one chunk of a ranked list.
    pub fn keep_probability(&self, ranked: &[RankedChunk], pos: usize) -> f32 {
        let f = selection_features(ranked, pos);
        self.mlp.infer(&Matrix::from_row(&f)).get(0, 0)
    }

    /// Train on `(features, keep-label)` examples; returns mean loss per
    /// epoch. Examples come from ranked lists with evidence ground truth
    /// (assembled by `sage-core::models`).
    pub fn train(
        &mut self,
        examples: &[([f32; NUM_SELECT_FEATURES], f32)],
        lr: f32,
        epochs: usize,
    ) -> Vec<f32> {
        let mut losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut total = 0.0;
            for (features, label) in examples {
                let x = Matrix::from_row(features);
                let y = Matrix::from_vec(1, 1, vec![*label]);
                let (loss, _) = self.mlp.train_batch_mse(&x, &y, lr);
                total += loss;
            }
            losses.push(total / examples.len().max(1) as f32);
        }
        losses
    }

    /// Select chunks: every chunk with keep-probability ≥ threshold, plus
    /// a fallback to the single best chunk when the classifier keeps
    /// nothing (an empty context is never useful). Not prefix-constrained.
    pub fn select(&self, ranked: &[RankedChunk], max_k: usize) -> Vec<RankedChunk> {
        let mut kept: Vec<RankedChunk> = (0..ranked.len())
            .filter(|&pos| self.keep_probability(ranked, pos) >= self.threshold)
            .map(|pos| ranked[pos])
            .take(max_k)
            .collect();
        if kept.is_empty() && !ranked.is_empty() {
            kept.push(ranked[0]);
        }
        kept
    }
}

/// Build keep/drop training examples from ranked lists with known
/// usefulness labels: `lists` pairs each ranked list with a per-position
/// "this chunk carries evidence" flag.
pub fn training_examples(
    lists: &[(Vec<RankedChunk>, Vec<bool>)],
) -> Vec<([f32; NUM_SELECT_FEATURES], f32)> {
    let mut out = Vec::new();
    for (ranked, useful) in lists {
        debug_assert_eq!(ranked.len(), useful.len());
        for (pos, &keep) in useful.iter().enumerate() {
            out.push((selection_features(ranked, pos), f32::from(keep)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranked(scores: &[f32]) -> Vec<RankedChunk> {
        scores
            .iter()
            .enumerate()
            .map(|(index, &score)| RankedChunk { index, score })
            .collect()
    }

    /// Synthetic training world: chunks with score ≥ 0.5 relative to top
    /// are useful, others are not — plus "poisoned head" lists where the
    /// top chunk is useless (score 1.0 but followed immediately by equally
    /// high useful ones is indistinguishable; we poison by making the head
    /// an outlier: huge score, big gap to a *cluster* of mid scores).
    fn training_world() -> Vec<(Vec<RankedChunk>, Vec<bool>)> {
        let mut lists = Vec::new();
        // Normal lists: useful head, junk tail.
        for n_useful in 1..=4usize {
            let mut scores = vec![0.9; n_useful];
            scores.extend(vec![0.05; 6 - n_useful.min(6)]);
            let useful: Vec<bool> = (0..scores.len()).map(|i| i < n_useful).collect();
            lists.push((ranked(&scores), useful));
        }
        // Smooth lists: everything moderately relevant and useful.
        lists.push((
            ranked(&[0.8, 0.75, 0.7, 0.65, 0.6, 0.55]),
            vec![true; 6],
        ));
        lists
    }

    #[test]
    fn training_reduces_loss() {
        let examples = training_examples(&training_world());
        let mut sel = FlexibleSelector::new(1);
        let losses = sel.train(&examples, 0.05, 40);
        assert!(losses.last().unwrap() < &losses[0], "{losses:?}");
    }

    #[test]
    fn trained_selector_separates_head_from_tail() {
        let examples = training_examples(&training_world());
        let mut sel = FlexibleSelector::new(2);
        sel.train(&examples, 0.05, 80);
        let r = ranked(&[0.9, 0.88, 0.06, 0.05, 0.04]);
        let kept = sel.select(&r, 10);
        let ids: Vec<usize> = kept.iter().map(|k| k.index).collect();
        assert!(ids.contains(&0) && ids.contains(&1), "{ids:?}");
        assert!(!ids.contains(&3), "{ids:?}");
    }

    #[test]
    fn keeps_smooth_lists_broadly() {
        let examples = training_examples(&training_world());
        let mut sel = FlexibleSelector::new(3);
        sel.train(&examples, 0.05, 80);
        let r = ranked(&[0.8, 0.74, 0.69, 0.63, 0.58]);
        assert!(sel.select(&r, 10).len() >= 4);
    }

    #[test]
    fn never_returns_empty_for_nonempty_input() {
        let sel = FlexibleSelector::new(4); // untrained: arbitrary outputs
        let r = ranked(&[0.01]);
        assert_eq!(sel.select(&r, 10).len(), 1);
        assert!(sel.select(&[], 10).is_empty());
    }

    #[test]
    fn respects_max_k() {
        let examples = training_examples(&training_world());
        let mut sel = FlexibleSelector::new(5);
        sel.train(&examples, 0.05, 40);
        let r = ranked(&[0.9; 12]);
        assert!(sel.select(&r, 3).len() <= 3);
    }

    #[test]
    fn features_are_bounded_and_ordered() {
        let r = ranked(&[1.0, 0.5, 0.1]);
        let f0 = selection_features(&r, 0);
        let f2 = selection_features(&r, 2);
        assert_eq!(f0[1], 1.0, "top chunk's relative score is 1");
        assert!(f2[1] < f0[1]);
        assert!(f2[3] > f0[3], "rank feature grows");
        for f in f0.iter().chain(f2.iter()) {
            assert!(f.is_finite());
        }
    }
}
