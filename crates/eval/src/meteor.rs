//! METEOR-lite \[3\]: unigram alignment with exact + stem matching, a
//! recall-weighted harmonic mean, and a fragmentation penalty. (Full METEOR
//! also uses WordNet synonymy; a synonym lexicon adds nothing on the
//! synthetic corpus, whose paraphrases vary by morphology and order.)

use sage_text::{stem, tokenize};

/// Alignment between candidate and reference tokens: exact match first,
/// then stem match, greedy left-to-right (each token on each side used
/// once). Returns `(candidate_pos, reference_pos)` pairs sorted by
/// candidate position.
fn align(c: &[String], r: &[String]) -> Vec<(usize, usize)> {
    let c_stems: Vec<String> = c.iter().map(|t| stem(t)).collect();
    let r_stems: Vec<String> = r.iter().map(|t| stem(t)).collect();
    let mut used = vec![false; r.len()];
    let mut pair_of: Vec<Option<usize>> = vec![None; c.len()];
    // Pass 1: exact.
    for (i, ct) in c.iter().enumerate() {
        if let Some(j) = (0..r.len()).find(|&j| !used[j] && &r[j] == ct) {
            used[j] = true;
            pair_of[i] = Some(j);
        }
    }
    // Pass 2: stems.
    for (i, cs) in c_stems.iter().enumerate() {
        if pair_of[i].is_some() {
            continue;
        }
        if let Some(j) = (0..r.len()).find(|&j| !used[j] && &r_stems[j] == cs) {
            used[j] = true;
            pair_of[i] = Some(j);
        }
    }
    pair_of
        .into_iter()
        .enumerate()
        .filter_map(|(i, j)| j.map(|j| (i, j)))
        .collect()
}

/// Number of METEOR "chunks": maximal runs of matches contiguous and
/// in-order in *both* candidate and reference.
fn runs(pairs: &[(usize, usize)]) -> usize {
    if pairs.is_empty() {
        return 0;
    }
    1 + pairs
        .windows(2)
        .filter(|w| w[1].0 != w[0].0 + 1 || w[1].1 != w[0].1 + 1)
        .count()
}

/// METEOR score in `[0, 1]` against the best reference.
pub fn meteor(candidate: &str, references: &[String]) -> f32 {
    let c = tokenize(candidate);
    if c.is_empty() {
        return 0.0;
    }
    references
        .iter()
        .map(|reference| {
            let r = tokenize(reference);
            if r.is_empty() {
                return 0.0;
            }
            let matches = align(&c, &r);
            let m = matches.len() as f32;
            if m == 0.0 {
                return 0.0;
            }
            let precision = m / c.len() as f32;
            let recall = m / r.len() as f32;
            // METEOR's recall-weighted harmonic mean (α = 0.9).
            let fmean = precision * recall / (0.9 * precision + 0.1 * recall);
            let frag = runs(&matches) as f32 / m;
            let penalty = 0.5 * frag.powi(3);
            fmean * (1.0 - penalty)
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
    fn identical_high() {
        let s = meteor("the cat has green eyes", &refs(&["the cat has green eyes"]));
        assert!(s > 0.9, "{s}");
    }

    #[test]
    fn disjoint_zero() {
        assert_eq!(meteor("alpha beta", &refs(&["gamma delta"])), 0.0);
    }

    #[test]
    fn stem_matching_counts() {
        let with_stem = meteor("jumping cats", &refs(&["jumped cat"]));
        assert!(with_stem > 0.3, "morphological variants should match: {with_stem}");
    }

    #[test]
    fn fragmentation_penalty_orders() {
        // Same unigram matches, contiguous vs scattered.
        let contiguous = meteor("green eyes shine", &refs(&["green eyes shine"]));
        let scattered = meteor("green shine eyes", &refs(&["green eyes shine"]));
        assert!(contiguous > scattered, "{contiguous} vs {scattered}");
    }

    #[test]
    fn recall_weighted() {
        // Candidate covering all of a short reference beats one covering
        // half, even with equal precision.
        let full = meteor("green eyes", &refs(&["green eyes"]));
        let half = meteor("green", &refs(&["green eyes"]));
        assert!(full > half);
        assert!(half > 0.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(meteor("", &refs(&["x"])), 0.0);
        assert_eq!(meteor("x", &refs(&[""])), 0.0);
        assert_eq!(meteor("x", &[]), 0.0);
    }

    #[test]
    fn runs_counting() {
        assert_eq!(runs(&[]), 0);
        assert_eq!(runs(&[(0, 0), (1, 1), (2, 2)]), 1);
        assert_eq!(runs(&[(0, 2), (1, 3), (2, 0)]), 2);
        assert_eq!(runs(&[(0, 0), (2, 1), (3, 2)]), 2);
    }
}
