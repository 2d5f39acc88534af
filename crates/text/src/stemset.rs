//! The distinct content stems of one text, for many lookups against one
//! set built in one pass.

use crate::ngram::fnv1a;
use crate::token::TokenBuf;

/// A reusable set of the distinct content-word stems of a [`TokenBuf`],
/// keyed by FNV-1a. [`fill`](Self::fill) appends every stem to one arena,
/// then sorts the `(hash, stem)` keys and drops repeats, so building costs
/// one sort instead of a sorted insert per stem; a lookup is a binary
/// search over integer keys that compares strings only on equal hashes.
/// Refilling it allocates only while it is still growing.
#[derive(Debug, Default, Clone)]
pub struct StemSet {
    text: String,
    /// Hash and byte range in `text` of each distinct stem, ordered by
    /// `(hash, stem)`.
    keys: Vec<(u64, usize, usize)>,
}

impl StemSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The key hash of `stem`, for [`contains`](Self::contains).
    pub fn hash(stem: &str) -> u64 {
        fnv1a(stem.as_bytes(), 0)
    }

    /// Replace the contents with the stems of the non-stopword tokens of
    /// `tokens`.
    pub fn fill(&mut self, tokens: &mut TokenBuf) {
        self.text.clear();
        self.keys.clear();
        for i in 0..tokens.len() {
            if !tokens.is_stop(i) {
                let stem = tokens.with_stem(i).1;
                let start = self.text.len();
                self.text.push_str(stem);
                self.keys.push((Self::hash(stem), start, self.text.len()));
            }
        }
        let text = &self.text;
        let word = |&(_, s, e): &(u64, usize, usize)| &text[s..e];
        self.keys.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| word(a).cmp(word(b))));
        self.keys.dedup_by(|a, b| a.0 == b.0 && word(a) == word(b));
    }

    /// Number of distinct stems.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the text had no content words.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Whether `stem`, whose [`hash`](Self::hash) is `hash`, is in the set.
    pub fn contains(&self, hash: u64, stem: &str) -> bool {
        self.keys
            .binary_search_by(|&(h, s, e)| h.cmp(&hash).then_with(|| self.text[s..e].cmp(stem)))
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stem::stem;
    use crate::stopwords::is_stopword;
    use crate::token::tokenize;
    use std::collections::BTreeSet;

    #[test]
    fn holds_each_content_stem_once_and_is_reusable() {
        let mut set = StemSet::new();
        let mut tokens = TokenBuf::new();
        for text in [
            "Cats chased the cat; the CATS ran, running and runs. Eyes eyes eyes eye.",
            "",
            "the of and is",
            "ΟΔΟΣ café Émile's cafés",
        ] {
            tokens.fill(text);
            set.fill(&mut tokens);
            let want: BTreeSet<String> =
                tokenize(text).iter().filter(|t| !is_stopword(t)).map(|t| stem(t)).collect();
            assert_eq!(set.len(), want.len(), "{text:?}");
            assert_eq!(set.is_empty(), want.is_empty());
            for s in &want {
                assert!(set.contains(StemSet::hash(s), s), "{s:?} in {text:?}");
            }
            for miss in ["the", "dog", "", "cats"] {
                assert!(!set.contains(StemSet::hash(miss), miss), "{miss:?} in {text:?}");
            }
        }
    }
}
