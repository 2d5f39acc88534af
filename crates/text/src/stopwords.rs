//! A compact English stopword list.
//!
//! Used by retrieval scoring and the reranker's lexical-overlap features so
//! that function words do not dominate similarity. The list is sorted so
//! lookup is a binary search — no hashing, no allocation.

/// Sorted list of stopwords. Keep sorted: [`is_stopword`] binary-searches.
const STOPWORDS: &[&str] = &[
    "a", "about", "above", "after", "again", "all", "also", "am", "an", "and", "any", "are",
    "as", "at", "be", "because", "been", "before", "being", "below", "between", "both", "but",
    "by", "can", "could", "did", "do", "does", "doing", "down", "during", "each", "few", "for",
    "from", "further", "had", "has", "have", "having", "he", "her", "here", "hers", "herself",
    "him", "himself", "his", "how", "i", "if", "in", "into", "is", "it", "its", "itself",
    "just", "me", "more", "most", "my", "myself", "no", "nor", "not", "now", "of", "off", "on",
    "once", "only", "or", "other", "our", "ours", "ourselves", "out", "over", "own", "s",
    "same", "she", "should", "so", "some", "such", "t", "than", "that", "the", "their",
    "theirs", "them", "themselves", "then", "there", "these", "they", "this", "those",
    "through", "to", "too", "under", "until", "up", "very", "was", "we", "were", "what",
    "when", "where", "which", "while", "who", "whom", "why", "will", "with", "would", "you",
    "your", "yours", "yourself", "yourselves",
];

/// A word of at most 15 bytes as one integer: its bytes big-endian and
/// zero-padded, then its length, so integer order is the byte-string order
/// of [`STOPWORDS`] and equal keys mean equal words.
const fn pack(word: &[u8]) -> u128 {
    let mut key = 0u128;
    let mut i = 0;
    while i < 15 {
        key = (key << 8) | if i < word.len() { word[i] as u128 } else { 0 };
        i += 1;
    }
    (key << 8) | word.len() as u128
}

/// [`STOPWORDS`] packed: the tokenizer asks about every token, and a search
/// over integers costs a fraction of one over string slices.
const PACKED: [u128; STOPWORDS.len()] = {
    let mut keys = [0u128; STOPWORDS.len()];
    let mut i = 0;
    while i < keys.len() {
        assert!(STOPWORDS[i].len() <= 15);
        keys[i] = pack(STOPWORDS[i].as_bytes());
        i += 1;
    }
    keys
};

/// Return `true` if `word` (already lowercase) is a stopword.
pub fn is_stopword(word: &str) -> bool {
    word.len() <= 15 && PACKED.binary_search(&pack(word.as_bytes())).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_is_sorted_and_deduped() {
        for w in STOPWORDS.windows(2) {
            assert!(w[0] < w[1], "{} >= {}", w[0], w[1]);
        }
    }

    #[test]
    fn packed_lookup_is_the_list_and_nothing_else() {
        for w in STOPWORDS {
            assert!(is_stopword(w), "{w}");
            assert!(!is_stopword(&w[..w.len() - 1]) || STOPWORDS.contains(&&w[..w.len() - 1]));
            for suffix in ["\0", "s", "-", "é"] {
                let longer = format!("{w}{suffix}");
                assert_eq!(is_stopword(&longer), STOPWORDS.contains(&longer.as_str()), "{longer:?}");
            }
        }
        assert!(!is_stopword(""));
        assert!(!is_stopword("themselvesthemselves"));
        assert!(PACKED.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn common_words_are_stopwords() {
        for w in ["the", "is", "a", "of", "and", "he", "his"] {
            assert!(is_stopword(w), "{w} should be a stopword");
        }
    }

    #[test]
    fn content_words_are_not() {
        for w in ["cat", "whiskers", "retrieval", "segment", "green"] {
            assert!(!is_stopword(w), "{w} should not be a stopword");
        }
    }
}
