//! Capitalised surface forms — the entity mentions of a text.
//!
//! Short texts are dominated by who they are about, so the sentence
//! encoders up-weight proper nouns, the reranker matches them between
//! question and chunk, and the simulated reader chains them as anchors. All
//! three read the one definition here.

use crate::stopwords::is_stopword;

/// A reusable sorted set of short strings in one `String` arena: refilling
/// it allocates only while it is still growing, and membership is a binary
/// search. A one-word signature (one bit per member, from its length and
/// end bytes) rejects most misses before any string is compared.
#[derive(Debug, Default, Clone)]
pub struct WordSet {
    text: String,
    /// Byte range of each word in `text`, ordered by the word.
    spans: Vec<(usize, usize)>,
    /// The union of the members' [`signature_bit`]s.
    signature: u64,
}

/// The one bit of a [`WordSet`] signature that `word` sets: its length and
/// first and last bytes, mixed by a multiply and read from the top six bits.
fn signature_bit(word: &str) -> u64 {
    let bytes = word.as_bytes();
    let first = bytes.first().map_or(0, |&b| u64::from(b));
    let last = bytes.last().map_or(0, |&b| u64::from(b));
    let key = bytes.len() as u64 | first << 32 | last << 40;
    1 << (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

impl WordSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remove every word, keeping the allocations.
    pub fn clear(&mut self) {
        self.text.clear();
        self.spans.clear();
        self.signature = 0;
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the set has no words.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Whether `word` is in the set.
    pub fn contains(&self, word: &str) -> bool {
        self.signature & signature_bit(word) != 0
            && self.spans.binary_search_by(|&(s, e)| self.text[s..e].cmp(word)).is_ok()
    }

    /// Add `word`; `false` when it was already there.
    pub fn insert(&mut self, word: &str) -> bool {
        let start = self.text.len();
        self.text.push_str(word);
        self.insert_tail(start)
    }

    /// Add the word written at `text[start..]`, or drop it when present.
    fn insert_tail(&mut self, start: usize) -> bool {
        let (head, word) = self.text.split_at(start);
        match self.spans.binary_search_by(|&(s, e)| head[s..e].cmp(word)) {
            Ok(_) => {
                self.text.truncate(start);
                false
            }
            Err(at) => {
                self.signature |= signature_bit(word);
                self.spans.insert(at, (start, self.text.len()));
                true
            }
        }
    }

    /// The words in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.spans.iter().map(|&(s, e)| &self.text[s..e])
    }
}

/// Whether a whitespace-delimited word starts with an uppercase letter.
pub fn is_capitalized(word: &str) -> bool {
    word.chars().next().is_some_and(char::is_uppercase)
}

/// Fill `out` with the capitalised surface forms of `text`: each
/// whitespace-delimited word starting uppercase, trimmed of surrounding
/// punctuation, lowercased and stripped of a possessive `'s` ("Whiskers'" /
/// "Whiskers's" → "whiskers", so mentions match across forms); empty
/// results and stopwords (sentence-initial "The") are dropped.
pub fn proper_nouns(text: &str, out: &mut WordSet) {
    out.clear();
    for word in text.split_whitespace().filter(|w| is_capitalized(w)) {
        let word = word.trim_matches(|c: char| !c.is_alphanumeric());
        let start = out.text.len();
        if word.is_ascii() {
            out.text.extend(word.bytes().map(|b| char::from(b.to_ascii_lowercase())));
        } else {
            // `str::to_lowercase` is context-sensitive (final sigma).
            out.text.push_str(&word.to_lowercase());
        }
        if out.text[start..].ends_with("'s") {
            out.text.truncate(out.text.len() - 2);
        }
        if start == out.text.len() || is_stopword(&out.text[start..]) {
            out.text.truncate(start);
        } else {
            out.insert_tail(start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proper(text: &str) -> Vec<String> {
        let mut set = WordSet::new();
        proper_nouns(text, &mut set);
        set.iter().map(str::to_string).collect()
    }

    #[test]
    fn possessives_and_punctuation_fold_into_one_form() {
        assert_eq!(proper("Whiskers' eyes — \"Whiskers's\" EYES; (Whiskers)"), ["eyes", "whiskers"]);
    }

    #[test]
    fn stopwords_lowercase_words_and_bare_punctuation_are_dropped() {
        assert!(proper("The cat. It's 'S ... — and").is_empty());
        // The possessive is looked for in the word, not across the arena.
        assert_eq!(proper("X''s S"), ["x'"]);
    }

    #[test]
    fn non_ascii_words_lowercase_as_str_does() {
        assert_eq!(proper("İstanbul ΟΔΟΣ Émile's"), ["i\u{307}stanbul", "émile", "οδος"]);
    }

    #[test]
    fn a_shared_signature_bit_is_not_membership() {
        // Same length, same end bytes: the same signature bit.
        let mut set = WordSet::new();
        set.insert("color");
        assert_eq!(signature_bit("color"), signature_bit("cigar"));
        assert!(set.contains("color") && !set.contains("cigar"));
        assert!(!set.contains("") && !set.contains("colors"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Over a three-letter alphabet most words of one length share
        /// their end bytes, so the signature passes many non-members.
        #[test]
        fn contains_is_a_linear_scan(
            words in proptest::collection::vec("[abc]{0,4}", 0..12),
            probes in proptest::collection::vec("[abc]{0,4}", 0..24),
            refill in proptest::collection::vec("[abc]{0,4}", 0..6),
        ) {
            let mut set = WordSet::new();
            let mut members: Vec<String> = Vec::new();
            for word in &words {
                proptest::prop_assert_eq!(set.insert(word), !members.contains(word));
                if !members.contains(word) {
                    members.push(word.clone());
                }
            }
            for probe in probes.iter().chain(&words) {
                proptest::prop_assert_eq!(set.contains(probe), members.contains(probe), "{}", probe);
            }
            set.clear();
            for probe in probes.iter().chain(&words) {
                proptest::prop_assert!(!set.contains(probe));
            }
            for word in &refill {
                set.insert(word);
            }
            for probe in probes.iter().chain(&words).chain(&refill) {
                proptest::prop_assert_eq!(set.contains(probe), refill.contains(probe));
            }
        }
    }

    #[test]
    fn set_is_sorted_distinct_and_reusable() {
        let mut set = WordSet::new();
        assert!(set.insert("b") && set.insert("a") && !set.insert("b") && set.insert("ab"));
        assert_eq!(set.iter().collect::<Vec<_>>(), ["a", "ab", "b"]);
        assert!(set.contains("ab") && !set.contains("") && !set.contains("c"));
        set.clear();
        assert!(set.is_empty() && !set.contains("a"));
        assert!(set.insert("a"));
        assert_eq!(set.len(), 1);
    }
}
