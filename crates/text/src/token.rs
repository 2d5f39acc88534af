//! Word tokenization and token counting.
//!
//! Tokens are lowercase alphanumeric runs. Apostrophes inside a word are
//! kept (`cat's` → `cat's`) so that possessives survive as a single token,
//! matching how the paper's motivating examples treat "my cat's eyes".

use crate::stem::stem_into;
use crate::stopwords::is_stopword;

/// Lowercase a string and collapse internal whitespace to single spaces.
///
/// Used to normalize answers before metric comparison.
pub fn normalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut last_space = true;
    for ch in text.chars() {
        if ch.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            for lc in ch.to_lowercase() {
                out.push(lc);
            }
            last_space = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// A reusable buffer of lowercase word tokens: one `String` arena holding
/// the tokens back to back, an end offset and a stopword flag per token.
/// [`fill`](Self::fill) overwrites it in place, so analysing many texts
/// through one buffer allocates only while the buffer is still growing.
///
/// A token is a maximal run of alphanumeric characters, possibly containing
/// single embedded apostrophes or hyphens (`state-of-the-art` is one token).
/// Punctuation is dropped.
#[derive(Debug, Default, Clone)]
pub struct TokenBuf {
    text: String,
    /// Per token: where it ends in `text` (it starts where the previous one
    /// ends) and whether it is a stopword.
    tokens: Vec<(usize, bool)>,
    /// Scratch for [`with_stem`](Self::with_stem).
    stem: String,
}

impl TokenBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the buffer's contents with the tokens of `text`.
    pub fn fill(&mut self, text: &str) {
        self.text.clear();
        self.tokens.clear();
        let mut start = 0;
        let mut chars = text.chars().peekable();
        while let Some(ch) = chars.next() {
            if ch.is_ascii_alphanumeric() {
                self.text.push(ch.to_ascii_lowercase());
            } else if ch.is_alphanumeric() {
                self.text.extend(ch.to_lowercase());
            } else if (ch == '\'' || ch == '-')
                && self.text.len() > start
                && chars.peek().is_some_and(|c| c.is_alphanumeric())
            {
                // keep intra-word apostrophes and hyphens
                self.text.push(ch);
            } else if self.text.len() > start {
                start = self.close_token(start);
            }
        }
        if self.text.len() > start {
            self.close_token(start);
        }
    }

    /// End the token that began at `start`; returns where the next begins.
    fn close_token(&mut self, start: usize) -> usize {
        let end = self.text.len();
        self.tokens.push((end, is_stopword(&self.text[start..end])));
        end
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the text had no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Where token `i` lies in `text`.
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.tokens[i - 1].0 };
        start..self.tokens[i].0
    }

    /// Token `i`. Panics when out of range.
    pub fn get(&self, i: usize) -> &str {
        &self.text[self.span(i)]
    }

    /// Whether token `i` is a stopword. Panics when out of range.
    pub fn is_stop(&self, i: usize) -> bool {
        self.tokens[i].1
    }

    /// The tokens in text order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Token `i` and its [`stem`](crate::stem()). The stem lives in the
    /// buffer's scratch until the next call.
    pub fn with_stem(&mut self, i: usize) -> (&str, &str) {
        let token = &self.text[self.span(i)];
        stem_into(token, &mut self.stem);
        (token, &self.stem)
    }

    /// Visit the stem of every token (stopwords included) in text order —
    /// the term stream of BM25 and of the reranker's IDF table.
    pub fn for_each_stem(&mut self, mut visit: impl FnMut(&str)) {
        for i in 0..self.len() {
            visit(self.with_stem(i).1);
        }
    }
}

/// Split `text` into lowercase word tokens (the grammar is [`TokenBuf`]'s).
pub fn tokenize(text: &str) -> Vec<String> {
    let mut buf = TokenBuf::new();
    buf.fill(text);
    buf.iter().map(str::to_string).collect()
}

/// Tokenize and drop stopwords. Used by retrieval scoring where function
/// words carry no signal.
pub fn tokenize_filtered(text: &str) -> Vec<String> {
    let mut buf = TokenBuf::new();
    buf.fill(text);
    (0..buf.len()).filter(|&i| !buf.is_stop(i)).map(|i| buf.get(i).to_string()).collect()
}

/// Approximate the number of LLM tokens in `text`.
///
/// The paper's cost model (Eq. 1) charges per LLM token. Real BPE tokenizers
/// produce roughly 4/3 tokens per English word; we reproduce that ratio so
/// that measured token counts land in the same regime as the paper's
/// (e.g. ~5,000-token QuALITY articles). Punctuation marks count as one
/// token each.
pub fn count_tokens(text: &str) -> usize {
    TokenTally::of(text).tokens()
}

/// The two terms of [`count_tokens`]: words (maximal runs of alphanumeric
/// characters, `'` and `-`) and punctuation marks (every other character
/// that is not whitespace).
///
/// Tallies of texts add when the texts are joined where no word character
/// meets another, e.g. at whitespace: then no word spans a joint, and the
/// sum's [`tokens`](Self::tokens) is the joined text's `count_tokens`. A
/// prompt is counted from its pieces this way, without being built.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TokenTally {
    /// Words.
    pub words: usize,
    /// Punctuation marks.
    pub punct: usize,
}

/// What one character of a text is to [`TokenTally`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Word,
    Space,
    Punct,
}

impl Class {
    fn of(ch: char) -> Self {
        if ch.is_alphanumeric() || ch == '\'' || ch == '-' {
            Class::Word
        } else if ch.is_whitespace() {
            Class::Space
        } else {
            Class::Punct
        }
    }
}

/// [`Class::of`] every ASCII character, so an ASCII byte is classed by one
/// load. `char::is_whitespace` reads U+0009..=U+000D and the space as
/// whitespace on ASCII, the vertical tab included.
const ASCII_CLASS: [Class; 128] = {
    let mut table = [Class::Punct; 128];
    let mut b = 0;
    while b < 128 {
        let byte = b as u8;
        if byte.is_ascii_alphanumeric() || byte == b'\'' || byte == b'-' {
            table[b] = Class::Word;
        } else if matches!(byte, b'\t'..=b'\r' | b' ') {
            table[b] = Class::Space;
        }
        b += 1;
    }
    table
};

impl TokenTally {
    /// The tally of `text`, a table load a byte while it is ASCII.
    pub fn of(text: &str) -> Self {
        let mut tally = Self::default();
        let mut in_word = false;
        let bytes = text.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let class = match ASCII_CLASS.get(usize::from(bytes[i])) {
                Some(&class) => {
                    i += 1;
                    class
                }
                None => {
                    let ch = text[i..].chars().next().unwrap_or_default();
                    i += ch.len_utf8();
                    Class::of(ch)
                }
            };
            let word = class == Class::Word;
            tally.words += usize::from(word && !in_word);
            tally.punct += usize::from(class == Class::Punct);
            in_word = word;
        }
        tally
    }

    /// The LLM tokens of the tallied text: 4 BPE tokens per 3 words,
    /// rounded up, plus one per punctuation mark.
    pub fn tokens(self) -> usize {
        self.words + self.words.div_ceil(3) + self.punct
    }
}

impl std::ops::Add for TokenTally {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self { words: self.words + other.words, punct: self.punct + other.punct }
    }
}

impl std::ops::AddAssign for TokenTally {
    fn add_assign(&mut self, other: Self) {
        *self = *self + other;
    }
}

impl std::iter::Sum for TokenTally {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_basic() {
        assert_eq!(tokenize("I have a cat."), vec!["i", "have", "a", "cat"]);
    }

    #[test]
    fn tokenize_keeps_possessive() {
        assert_eq!(tokenize("my cat's eyes"), vec!["my", "cat's", "eyes"]);
    }

    #[test]
    fn tokenize_keeps_hyphenated() {
        assert_eq!(tokenize("state-of-the-art"), vec!["state-of-the-art"]);
    }

    #[test]
    fn tokenize_drops_trailing_apostrophe() {
        assert_eq!(tokenize("cats' toys"), vec!["cats", "toys"]);
    }

    #[test]
    fn tokenize_empty() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("  ...  ").is_empty());
    }

    #[test]
    fn tokenize_numbers() {
        assert_eq!(tokenize("GPT-4 costs 10 dollars"), vec!["gpt-4", "costs", "10", "dollars"]);
    }

    #[test]
    fn normalize_collapses_whitespace() {
        assert_eq!(normalize("  A  Big\tCat \n"), "a big cat");
    }

    #[test]
    fn count_tokens_scales_with_words() {
        // 3 words -> 3 + 1 = 4 tokens plus one period
        assert_eq!(count_tokens("I have cats."), 5);
        assert_eq!(count_tokens(""), 0);
    }

    #[test]
    fn count_tokens_monotone_in_text() {
        let short = count_tokens("one two three");
        let long = count_tokens("one two three four five six");
        assert!(long > short);
    }

    #[test]
    fn the_ascii_table_classes_as_the_char_rule_does() {
        for (b, &class) in ASCII_CLASS.iter().enumerate() {
            assert_eq!(class, Class::of(char::from(b as u8)), "{b:#04x}");
        }
    }

    #[test]
    fn filtered_drops_stopwords() {
        let toks = tokenize_filtered("the cat is on the mat");
        assert_eq!(toks, vec!["cat", "mat"]);
    }
}
