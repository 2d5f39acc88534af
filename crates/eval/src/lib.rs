//! # sage-eval
//!
//! Evaluation metrics (paper §VII-A "Metrics") and the cost model
//! (§II-B/§II-C):
//!
//! * [`rouge_l`] — ROUGE-L F-measure (NarrativeQA tables);
//! * [`bleu`] — smoothed sentence-level BLEU-n with brevity penalty
//!   (BLEU-1 and BLEU-4 columns);
//! * [`meteor`] — METEOR-lite: stem-aware unigram alignment with a
//!   fragmentation penalty;
//! * [`f1_match`] — token-level F1 (QASPER / TriviaQA "F1-Match");
//! * [`cost::Cost`] — Eq. 1 token pricing and Eq. 2 cost-efficiency.
//!
//! All text comparisons are case-insensitive over word tokens; metrics with
//! multiple references take the best score across references (the standard
//! convention on these datasets).

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types, reason = "tests may time and hash freely"))]

pub mod bleu;
pub mod cost;
pub mod meteor;
pub mod retrieval;
pub mod rouge;
pub mod stats;

pub use bleu::bleu;
pub use cost::{cost_efficiency, Cost, PriceTable};
pub use meteor::meteor;
pub use retrieval::{hit_rate_at_k, ndcg_at_k, precision_at_k, recall_at_k, reciprocal_rank};
pub use rouge::rouge_l;
pub use stats::{bootstrap_mean_ci, MeanCi};

use sage_text::tokenize;

/// Token-level F1 between a candidate and the best-matching reference — the
/// paper's "F1-Match" metric [38].
///
/// ```
/// use sage_eval::f1_match;
/// let refs = vec!["green eyes".to_string()];
/// assert_eq!(f1_match("green eyes", &refs), 1.0);
/// assert!(f1_match("bright green", &refs) >= 0.5); // overlap "green": P=1/2, R=1/2
/// assert_eq!(f1_match("orange", &refs), 0.0);
/// ```
pub fn f1_match(candidate: &str, references: &[String]) -> f32 {
    references.iter().map(|r| f1_single(candidate, r)).fold(0.0, f32::max)
}

fn f1_single(candidate: &str, reference: &str) -> f32 {
    let c = tokenize(candidate);
    let r = tokenize(reference);
    if c.is_empty() || r.is_empty() {
        return if c.is_empty() && r.is_empty() { 1.0 } else { 0.0 };
    }
    // Multiset intersection.
    #[expect(
        clippy::disallowed_types,
        reason = "integer multiset counts consumed by commutative min/sum; iteration order cannot change the score"
    )]
    let mut counts = std::collections::HashMap::new();
    for t in &r {
        *counts.entry(t.as_str()).or_insert(0i32) += 1;
    }
    let mut overlap = 0i32;
    for t in &c {
        if let Some(n) = counts.get_mut(t.as_str()) {
            if *n > 0 {
                overlap += 1;
                *n -= 1;
            }
        }
    }
    if overlap == 0 {
        return 0.0;
    }
    let precision = overlap as f32 / c.len() as f32;
    let recall = overlap as f32 / r.len() as f32;
    2.0 * precision * recall / (precision + recall)
}

/// Mean of a score list (0 for empty input).
pub fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f32>() / values.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn f1_perfect_match() {
        assert!((f1_match("green eyes", &refs(&["green eyes"])) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn f1_partial_overlap() {
        let f1 = f1_match("bright green", &refs(&["green"]));
        // precision 1/2, recall 1/1 -> 2/3
        assert!((f1 - 2.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn f1_no_overlap_zero() {
        assert_eq!(f1_match("orange", &refs(&["green"])), 0.0);
    }

    #[test]
    fn f1_best_of_references() {
        let f1 = f1_match("the green", &refs(&["orange", "the green"]));
        assert!((f1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn f1_empty_edge_cases() {
        assert_eq!(f1_match("", &refs(&["x"])), 0.0);
        assert_eq!(f1_match("x", &refs(&[""])), 0.0);
        assert_eq!(f1_match("", &refs(&[""])), 1.0);
    }

    #[test]
    fn f1_counts_duplicates_once() {
        // candidate repeats a token; only one copy matches.
        let f1 = f1_match("green green", &refs(&["green"]));
        // overlap 1, precision 1/2, recall 1 -> 2/3
        assert!((f1 - 2.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-6);
    }
}
