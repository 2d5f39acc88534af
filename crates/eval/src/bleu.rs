//! Sentence-level BLEU-n with brevity penalty \[36\], add-ε smoothing for
//! higher orders (standard practice when grading short answers, where raw
//! BLEU-4 would be zero almost everywhere — note the paper's BLEU-4
//! columns sit around 1%).

use sage_text::{ngrams, tokenize};

/// Clipped n-gram precision of candidate tokens against one reference.
#[expect(
    clippy::disallowed_types,
    reason = "integer n-gram multiset; clipped counts are a commutative sum, order-independent"
)]
fn clipped_precision(c: &[String], r: &[String], n: usize) -> (usize, usize) {
    use std::collections::HashMap;
    let c_ngrams = ngrams(c, n);
    if c_ngrams.is_empty() {
        return (0, 0);
    }
    let mut ref_counts: HashMap<String, usize> = HashMap::new();
    for g in ngrams(r, n) {
        *ref_counts.entry(g).or_insert(0) += 1;
    }
    let mut cand_counts: HashMap<&str, usize> = HashMap::new();
    for g in &c_ngrams {
        *cand_counts.entry(g).or_insert(0) += 1;
    }
    let mut hits = 0usize;
    for (g, &count) in &cand_counts {
        if let Some(&rc) = ref_counts.get(*g) {
            hits += count.min(rc);
        }
    }
    (hits, c_ngrams.len())
}

/// BLEU-`order` against the best single reference, geometric mean of
/// 1..=order clipped precisions with brevity penalty. Returns a value in
/// `[0, 1]`.
pub fn bleu(candidate: &str, references: &[String], order: usize) -> f32 {
    assert!(order >= 1, "BLEU order must be >= 1");
    let c = tokenize(candidate);
    if c.is_empty() || references.is_empty() {
        return 0.0;
    }
    references
        .iter()
        .map(|reference| {
            let r = tokenize(reference);
            if r.is_empty() {
                return 0.0;
            }
            let mut log_sum = 0.0f64;
            for n in 1..=order {
                let (hits, total) = clipped_precision(&c, &r, n);
                // ε-smoothing keeps higher orders finite on short answers.
                let p = (hits as f64 + 0.1) / (total as f64 + 0.1).max(0.2);
                log_sum += p.ln();
            }
            let precision = (log_sum / order as f64).exp();
            let bp = if c.len() >= r.len() {
                1.0
            } else {
                (1.0 - r.len() as f64 / c.len() as f64).exp()
            };
            (bp * precision) as f32
        })
        .fold(0.0, f32::max)
        .clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn identical_near_one() {
        let s = bleu("the cat sat on the mat", &refs(&["the cat sat on the mat"]), 4);
        assert!(s > 0.9, "{s}");
    }

    #[test]
    fn disjoint_near_zero() {
        let s = bleu("alpha beta gamma", &refs(&["delta epsilon zeta"]), 1);
        assert!(s < 0.2, "{s}");
    }

    #[test]
    fn bleu1_geq_bleu4() {
        let c = "the green eyes of the cat";
        let r = refs(&["the cat has green eyes"]);
        assert!(bleu(c, &r, 1) >= bleu(c, &r, 4));
    }

    #[test]
    fn brevity_penalty_punishes_short_candidates() {
        let r = refs(&["the cat has bright green eyes today"]);
        let long = bleu("the cat has bright green eyes today", &r, 1);
        let short = bleu("green", &r, 1);
        assert!(long > short, "{long} vs {short}");
    }

    #[test]
    fn clipping_limits_repeats() {
        // "the the the" must not get credit for three "the"s against a
        // single-"the" reference.
        let repeated = bleu("the the the", &refs(&["the cat"]), 1);
        let single = bleu("the cat", &refs(&["the cat"]), 1);
        assert!(repeated < single);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(bleu("", &refs(&["x"]), 1), 0.0);
        assert_eq!(bleu("x", &[], 1), 0.0);
        assert_eq!(bleu("x", &refs(&[""]), 1), 0.0);
    }

    #[test]
    fn best_reference_wins() {
        let r = refs(&["nothing shared", "green eyes"]);
        assert!(bleu("green eyes", &r, 1) > 0.9);
    }

    #[test]
    #[should_panic(expected = "order")]
    fn order_zero_panics() {
        bleu("x", &refs(&["x"]), 0);
    }
}
