//! Capitalised surface forms — the entity mentions of a text.
//!
//! Short texts are dominated by who they are about, so the sentence
//! encoders up-weight proper nouns, the reranker matches them between
//! question and chunk, and the simulated reader chains them as anchors. All
//! three read the one definition here.

use crate::stopwords::is_stopword;

/// A reusable sorted set of short strings in one `String` arena: refilling
/// it allocates only while it is still growing, and membership is a binary
/// search.
#[derive(Debug, Default, Clone)]
pub struct WordSet {
    text: String,
    /// Byte range of each word in `text`, ordered by the word.
    spans: Vec<(usize, usize)>,
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
        self.spans.binary_search_by(|&(s, e)| self.text[s..e].cmp(word)).is_ok()
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
