//! ROUGE-L: longest-common-subsequence F-measure \[28\].

use sage_text::tokenize;

/// Length of the longest common subsequence of two token slices.
fn lcs_len(a: &[String], b: &[String]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    // Two-row DP.
    let mut prev = vec![0usize; b.len() + 1];
    let mut curr = vec![0usize; b.len() + 1];
    for ai in a {
        for (j, bj) in b.iter().enumerate() {
            curr[j + 1] = if ai == bj { prev[j] + 1 } else { prev[j + 1].max(curr[j]) };
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// ROUGE-L F-measure against the best reference (β = 1).
pub fn rouge_l(candidate: &str, references: &[String]) -> f32 {
    let c = tokenize(candidate);
    references
        .iter()
        .map(|r| {
            let rt = tokenize(r);
            let lcs = lcs_len(&c, &rt);
            if lcs == 0 {
                return 0.0;
            }
            let p = lcs as f32 / c.len() as f32;
            let r = lcs as f32 / rt.len() as f32;
            2.0 * p * r / (p + r)
        })
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn identical_is_one() {
        assert!((rouge_l("the cat sat", &refs(&["the cat sat"])) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn disjoint_is_zero() {
        assert_eq!(rouge_l("alpha beta", &refs(&["gamma delta"])), 0.0);
    }

    #[test]
    fn subsequence_not_substring() {
        // "the green eyes" vs "the bright green cat eyes": LCS = the green
        // eyes (3).
        let score = rouge_l("the green eyes", &refs(&["the bright green cat eyes"]));
        let p = 3.0 / 3.0;
        let r = 3.0 / 5.0;
        let want = 2.0 * p * r / (p + r);
        assert!((score - want).abs() < 1e-5, "{score} vs {want}");
    }

    #[test]
    fn order_matters_for_lcs() {
        let inorder = rouge_l("green eyes", &refs(&["green eyes"]));
        let reversed = rouge_l("eyes green", &refs(&["green eyes"]));
        assert!(inorder > reversed);
        assert!(reversed > 0.0, "still shares a 1-token subsequence");
    }

    #[test]
    fn best_reference_wins() {
        let s = rouge_l("green", &refs(&["totally different", "green"]));
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_candidate_zero() {
        assert_eq!(rouge_l("", &refs(&["green"])), 0.0);
        assert_eq!(rouge_l("green", &[]), 0.0);
    }
}
