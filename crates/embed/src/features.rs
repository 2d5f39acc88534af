//! Shared feature extraction for hashed encoders: unigrams, stems, and
//! bigrams, each hashed into a bucket with a deterministic sign.

use sage_text::{bigrams, hash_token, stem, tokenize};

/// Extract `(bucket, sign * weight)` features for a sentence.
///
/// * content unigrams get weight 1.0, stopwords 0.25 (they still carry some
///   signal for short queries, but must not dominate);
/// * proper nouns (capitalised surface forms) get weight 2.0 — entity
///   identity dominates the semantics of short texts, and real sentence
///   encoders align named-entity mentions strongly;
/// * stems get weight 0.5 (merging morphological variants);
/// * bigrams get weight 0.75 (phrase identity — distinguishes
///   "cat chased dog" from "dog chased cat").
///
/// `seed` decorrelates hash functions between towers/models.
pub fn sentence_features(text: &str, buckets: usize, seed: u64) -> Vec<(u32, f32)> {
    // Capitalised surface forms (lowercased, possessive-stripped).
    #[expect(
        clippy::disallowed_types,
        reason = "membership probes only (contains); feature emission walks the token sequence, not this set"
    )]
    let proper: std::collections::HashSet<String> = text
        .split_whitespace()
        .filter(|w| w.chars().next().is_some_and(char::is_uppercase))
        .map(|w| {
            let t = w.trim_matches(|c: char| !c.is_alphanumeric()).to_lowercase();
            t.strip_suffix("'s").unwrap_or(&t).to_string()
        })
        .filter(|w| !w.is_empty() && !sage_text::is_stopword(w))
        .collect();
    let tokens = tokenize(text);
    let mut feats = Vec::with_capacity(tokens.len() * 3);
    for tok in &tokens {
        let base = tok.strip_suffix("'s").unwrap_or(tok);
        let w = if sage_text::is_stopword(tok) {
            0.25
        } else if proper.contains(base) {
            2.0
        } else {
            1.0
        };
        let f = hash_token(base, buckets, seed);
        feats.push((f.bucket, f.sign * w));
        if w == 1.0 {
            let stemmed = stem(tok);
            if stemmed != *tok {
                let fs = hash_token(&stemmed, buckets, seed.wrapping_add(1));
                feats.push((fs.bucket, fs.sign * 0.5));
            }
        }
    }
    for bg in bigrams(&tokens) {
        let f = hash_token(&bg, buckets, seed.wrapping_add(2));
        feats.push((f.bucket, f.sign * 0.75));
    }
    feats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_deterministic() {
        let a = sentence_features("The cat sat on the mat.", 512, 7);
        let b = sentence_features("The cat sat on the mat.", 512, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn features_respect_buckets() {
        let feats = sentence_features("retrieval augmented generation works well", 64, 0);
        assert!(feats.iter().all(|(b, _)| (*b as usize) < 64));
        assert!(!feats.is_empty());
    }

    #[test]
    fn stopwords_downweighted() {
        let feats = sentence_features("the", 512, 0);
        assert_eq!(feats.len(), 1);
        assert!((feats[0].1.abs() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn different_seeds_differ() {
        let a = sentence_features("green eyes", 512, 1);
        let b = sentence_features("green eyes", 512, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn word_order_changes_features() {
        // Bigrams make the extraction order-sensitive.
        let a = sentence_features("cat chased dog", 512, 0);
        let b = sentence_features("dog chased cat", 512, 0);
        let sa: std::collections::BTreeSet<u32> = a.iter().map(|(b, _)| *b).collect();
        let sb: std::collections::BTreeSet<u32> = b.iter().map(|(b, _)| *b).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn empty_text_no_features() {
        assert!(sentence_features("", 64, 0).is_empty());
    }
}
