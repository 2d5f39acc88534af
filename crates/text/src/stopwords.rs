//! A compact English stopword list.
//!
//! Used by retrieval scoring, the reranker's lexical-overlap features and
//! the simulated reader and judge so that function words do not dominate
//! similarity; the tokenizer asks about every token it closes. A lookup is
//! one probe of a table built at compile time, where every stopword has a
//! slot of its own, then one string comparison — no search, no allocation.

/// The stopwords, sorted.
pub const STOPWORDS: &[&str] = &[
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

/// Bits of the probe table's slot index: 2,048 slots, room enough for a
/// multiplier that leaves every stopword alone in its slot.
const SLOT_BITS: u32 = 11;

/// No stopword in this slot.
const EMPTY: u8 = u8::MAX;

/// The longest stopword's length: a longer word is no stopword.
const MAX_LEN: usize = {
    let mut max = 0;
    let mut i = 0;
    while i < STOPWORDS.len() {
        if STOPWORDS[i].len() > max {
            max = STOPWORDS[i].len();
        }
        i += 1;
    }
    max
};

/// The slot `word` probes: its length and bytes folded into one integer,
/// spread by `multiplier` and read from the top bits. The length is part
/// of the key, so a word and the same word with NUL bytes appended ("a",
/// "a\0") fold differently; the string comparison after the probe decides
/// membership either way.
const fn slot(word: &[u8], multiplier: u64) -> usize {
    let mut key = word.len() as u64;
    let mut i = 0;
    while i < word.len() {
        key = key.rotate_left(8) ^ word[i] as u64;
        i += 1;
    }
    (key.wrapping_mul(multiplier) >> (64 - SLOT_BITS)) as usize
}

/// The first odd multiplier, counting up from the golden ratio's in
/// golden-ratio steps, under which no two stopwords share a slot, and the
/// table it fills: each stopword's index in [`STOPWORDS`] at its slot.
const PROBE: (u64, [u8; 1 << SLOT_BITS]) = {
    assert!(STOPWORDS.len() < EMPTY as usize);
    let mut multiplier = 0x9E37_79B9_7F4A_7C15u64;
    loop {
        let mut table = [EMPTY; 1 << SLOT_BITS];
        let mut i = 0;
        while i < STOPWORDS.len() {
            let s = slot(STOPWORDS[i].as_bytes(), multiplier);
            if table[s] != EMPTY {
                break;
            }
            table[s] = i as u8;
            i += 1;
        }
        if i == STOPWORDS.len() {
            break (multiplier, table);
        }
        multiplier = multiplier.wrapping_add(0x9E37_79B9_7F4A_7C16);
    }
};

/// Return `true` if `word` (already lowercase) is a stopword: one table
/// probe, then one string comparison.
pub fn is_stopword(word: &str) -> bool {
    if word.len() > MAX_LEN {
        return false;
    }
    let (multiplier, table) = &PROBE;
    let at = table[slot(word.as_bytes(), *multiplier)];
    at != EMPTY && STOPWORDS[usize::from(at)] == word
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
        // Every stopword has the slot it probes to itself.
        let (multiplier, table) = &PROBE;
        for (i, w) in STOPWORDS.iter().enumerate() {
            assert_eq!(usize::from(table[slot(w.as_bytes(), *multiplier)]), i, "{w}");
        }
        assert_eq!(table.iter().filter(|&&at| at != EMPTY).count(), STOPWORDS.len());
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
