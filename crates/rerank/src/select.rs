//! Gradient-based chunk selection — the paper's Algorithm 2.
//!
//! See the crate-level docs for the threshold semantics we adopt (keep
//! chunk *i* while `S[i] > S[i-1] * g`): the paper's pseudocode as printed
//! is unsatisfiable for descending scores, and the prose pins this reading.

use crate::RankedChunk;

/// Parameters of Algorithm 2.
#[derive(Debug, Clone, Copy)]
pub struct SelectionConfig {
    /// Minimum number of chunks to keep (`min_k`; paper default 7, adjusted
    /// ±1 by the self-feedback loop).
    pub min_k: usize,
    /// Relative-drop threshold `g` (paper default 0.3): selection stops at
    /// the first chunk whose score falls to ≤ `g` × its predecessor.
    pub gradient: f32,
    /// Hard cap on the number of selected chunks (the paper's `N`, the
    /// vector-database candidate count).
    pub max_k: usize,
    /// Extension floor: beyond `min_k`, a chunk is only kept while its
    /// score is at least `floor_ratio` × the top score. Without this, a
    /// flat near-zero tail (every junk chunk scoring ≈ its junk
    /// predecessor) extends forever — the flat-tail degenerate case of the
    /// predecessor-ratio rule.
    pub floor_ratio: f32,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        Self { min_k: 7, gradient: 0.3, max_k: 20, floor_ratio: 0.1 }
    }
}

/// Algorithm 2: dynamically select the top chunks before the first sharp
/// relative score drop.
///
/// `ranked` must be sorted best-first (as returned by
/// [`crate::CrossScorer::rerank`]). Returns a best-first prefix of
/// `ranked`: at least `min(min_k, len)` chunks, at most `max_k`.
///
/// ```
/// use sage_rerank::{gradient_select, RankedChunk, SelectionConfig};
///
/// // A focused question's score curve: strong head, sharp cliff.
/// let ranked: Vec<RankedChunk> = [0.95, 0.90, 0.85, 0.10, 0.08]
///     .iter()
///     .enumerate()
///     .map(|(index, &score)| RankedChunk { index, score })
///     .collect();
/// let cfg = SelectionConfig { min_k: 1, ..SelectionConfig::default() };
/// let selected = gradient_select(&ranked, cfg);
/// assert_eq!(selected.len(), 3); // stops at the cliff
/// ```
pub fn gradient_select(ranked: &[RankedChunk], cfg: SelectionConfig) -> Vec<RankedChunk> {
    debug_assert!(
        ranked.windows(2).all(|w| w[0].score >= w[1].score),
        "gradient_select expects descending scores"
    );
    let min_k = cfg.min_k.max(1);
    let take = min_k.min(ranked.len()).min(cfg.max_k);
    let mut selected: Vec<RankedChunk> = ranked[..take].to_vec();
    let floor = ranked.first().map_or(0.0, |r| r.score * cfg.floor_ratio);
    for i in take..ranked.len().min(cfg.max_k) {
        let prev = ranked[i - 1].score;
        // Keep while the score has not collapsed relative to its
        // predecessor and is still a meaningful fraction of the best.
        if prev > 0.0 && ranked[i].score > prev * cfg.gradient && ranked[i].score >= floor {
            selected.push(ranked[i]);
        } else {
            break;
        }
    }
    selected
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

    #[test]
    fn stops_at_sharp_drop() {
        // Figure 5 Article-1 shape: three strong chunks then a cliff.
        let r = ranked(&[0.95, 0.90, 0.85, 0.10, 0.08, 0.05]);
        let cfg = SelectionConfig { min_k: 1, gradient: 0.3, max_k: 10, ..SelectionConfig::default() };
        let sel = gradient_select(&r, cfg);
        assert_eq!(sel.len(), 3, "{sel:?}");
    }

    #[test]
    fn keeps_extending_on_smooth_slope() {
        // Figure 5 Article-2 / Figure 9 shape: smooth decline → take many.
        let r = ranked(&[0.9, 0.8, 0.72, 0.65, 0.6, 0.55, 0.5, 0.46]);
        let cfg = SelectionConfig { min_k: 1, gradient: 0.3, max_k: 10, ..SelectionConfig::default() };
        let sel = gradient_select(&r, cfg);
        assert_eq!(sel.len(), 8, "smooth slope should keep all: {sel:?}");
    }

    #[test]
    fn smooth_tail_above_floor_extends_despite_early_cliff() {
        // The drop happens *within* the mandatory min_k prefix; extension
        // is judged relative to each predecessor, so a smooth tail that
        // stays above the floor is kept.
        let r = ranked(&[0.9, 0.5, 0.45, 0.40, 0.36]);
        let cfg = SelectionConfig { min_k: 3, gradient: 0.3, max_k: 10, ..SelectionConfig::default() };
        let sel = gradient_select(&r, cfg);
        assert_eq!(sel.len(), 5, "{sel:?}");
    }

    #[test]
    fn flat_junk_tail_stops_at_floor() {
        // The degenerate case the floor exists for: a saturated scorer
        // gives [1.0, 1.0, ~0, ~0, …] and the near-zero tail must not be
        // dragged in by the predecessor-ratio rule.
        let r = ranked(&[1.0, 1.0, 0.004, 0.0039, 0.0038, 0.0037, 0.0036]);
        let cfg = SelectionConfig { min_k: 2, gradient: 0.3, max_k: 20, ..SelectionConfig::default() };
        let sel = gradient_select(&r, cfg);
        assert_eq!(sel.len(), 2, "{sel:?}");
    }

    #[test]
    fn cliff_at_min_k_boundary_stops() {
        let r = ranked(&[0.9, 0.8, 0.7, 0.1, 0.09]);
        let cfg = SelectionConfig { min_k: 3, gradient: 0.3, max_k: 10, ..SelectionConfig::default() };
        let sel = gradient_select(&r, cfg);
        assert_eq!(sel.len(), 3, "{sel:?}");
    }

    #[test]
    fn respects_max_k() {
        let r = ranked(&[0.9, 0.89, 0.88, 0.87, 0.86, 0.85]);
        let cfg = SelectionConfig { min_k: 1, gradient: 0.3, max_k: 4, ..SelectionConfig::default() };
        assert_eq!(gradient_select(&r, cfg).len(), 4);
    }

    #[test]
    fn fewer_candidates_than_min_k() {
        let r = ranked(&[0.9, 0.8]);
        let cfg = SelectionConfig { min_k: 7, gradient: 0.3, max_k: 20, ..SelectionConfig::default() };
        assert_eq!(gradient_select(&r, cfg).len(), 2);
    }

    #[test]
    fn empty_input() {
        let cfg = SelectionConfig::default();
        assert!(gradient_select(&[], cfg).is_empty());
    }

    #[test]
    fn zero_scores_stop_extension() {
        let r = ranked(&[0.5, 0.0, 0.0]);
        let cfg = SelectionConfig { min_k: 1, gradient: 0.3, max_k: 10, ..SelectionConfig::default() };
        assert_eq!(gradient_select(&r, cfg).len(), 1);
    }

    #[test]
    fn min_k_zero_treated_as_one() {
        let r = ranked(&[0.9, 0.1]);
        let cfg = SelectionConfig { min_k: 0, gradient: 0.3, max_k: 10, ..SelectionConfig::default() };
        let sel = gradient_select(&r, cfg);
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn selection_is_a_prefix() {
        let r = ranked(&[0.9, 0.7, 0.6, 0.2, 0.15]);
        let cfg = SelectionConfig { min_k: 2, gradient: 0.3, max_k: 10, ..SelectionConfig::default() };
        let sel = gradient_select(&r, cfg);
        for (i, s) in sel.iter().enumerate() {
            assert_eq!(s.index, r[i].index);
        }
    }

    #[test]
    fn smaller_gradient_selects_more() {
        // g → 0 tolerates any drop; g → 1 tolerates none.
        let r = ranked(&[0.9, 0.5, 0.3, 0.2, 0.12]);
        let loose = SelectionConfig { min_k: 1, gradient: 0.1, max_k: 10, ..SelectionConfig::default() };
        let tight = SelectionConfig { min_k: 1, gradient: 0.9, max_k: 10, ..SelectionConfig::default() };
        assert!(gradient_select(&r, loose).len() > gradient_select(&r, tight).len());
    }
}
