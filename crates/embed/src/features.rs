//! Shared feature extraction for hashed encoders: unigrams, stems, and
//! bigrams, each hashed into a bucket with a deterministic sign.

use sage_text::{hash_bigram, hash_token, proper_nouns, TokenBuf, WordSet};

/// One text analysed once: its tokens and its capitalised surface forms
/// (lowercased, possessive-stripped). Refill it to analyse the next text in
/// the same allocations.
#[derive(Debug, Default, Clone)]
pub struct Analysis {
    /// The text's word tokens.
    pub tokens: TokenBuf,
    /// The text's proper nouns.
    pub proper: WordSet,
}

impl Analysis {
    /// The analysis of `text` in fresh buffers.
    pub fn of(text: &str) -> Self {
        let mut analysis = Self::default();
        analysis.fill(text);
        analysis
    }

    /// Replace the contents with the analysis of `text`.
    pub fn fill(&mut self, text: &str) {
        self.tokens.fill(text);
        proper_nouns(text, &mut self.proper);
    }

    /// Emit the `(bucket, sign * weight)` features of the analysed text, in
    /// a fixed order (per token its unigram then its stem, then every
    /// bigram):
    ///
    /// * content unigrams get weight 1.0, stopwords 0.25 (they still carry
    ///   some signal for short queries, but must not dominate);
    /// * proper nouns (capitalised surface forms) get weight 2.0 — entity
    ///   identity dominates the semantics of short texts, and real sentence
    ///   encoders align named-entity mentions strongly;
    /// * stems get weight 0.5 (merging morphological variants);
    /// * bigrams get weight 0.75 (phrase identity — distinguishes
    ///   "cat chased dog" from "dog chased cat").
    ///
    /// `seed` decorrelates hash functions between towers/models.
    pub fn for_each_feature(&mut self, buckets: usize, seed: u64, mut emit: impl FnMut(u32, f32)) {
        let Self { tokens, proper } = self;
        for i in 0..tokens.len() {
            let tok = tokens.get(i);
            let base = tok.strip_suffix("'s").unwrap_or(tok);
            let w = if tokens.is_stop(i) {
                0.25
            } else if proper.contains(base) {
                2.0
            } else {
                1.0
            };
            let f = hash_token(base, buckets, seed);
            emit(f.bucket, f.sign * w);
            if w == 1.0 {
                let (tok, stemmed) = tokens.with_stem(i);
                if stemmed != tok {
                    let fs = hash_token(stemmed, buckets, seed.wrapping_add(1));
                    emit(fs.bucket, fs.sign * 0.5);
                }
            }
        }
        for i in 1..tokens.len() {
            let f = hash_bigram(tokens.get(i - 1), tokens.get(i), buckets, seed.wrapping_add(2));
            emit(f.bucket, f.sign * 0.75);
        }
    }
}

/// Extract the `(bucket, sign * weight)` features of a sentence
/// ([`Analysis::for_each_feature`] collected).
pub fn sentence_features(text: &str, buckets: usize, seed: u64) -> Vec<(u32, f32)> {
    let mut analysis = Analysis::of(text);
    let mut feats = Vec::with_capacity(analysis.tokens.len() * 3);
    analysis.for_each_feature(buckets, seed, |bucket, weight| feats.push((bucket, weight)));
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
