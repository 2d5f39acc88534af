//! The token buffer, the in-place stemmer, `proper_nouns` and the slicing
//! `split_sentences` against the allocating bodies they replaced, kept here
//! verbatim as oracles.

use proptest::prelude::*;
use sage_text::{
    is_stopword, proper_nouns, split_sentences, stem, stem_into, tokenize, tokenize_filtered,
    TokenBuf, WordSet,
};
use std::collections::BTreeSet;

fn oracle_tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let chars: Vec<char> = text.chars().collect();
    for (i, &ch) in chars.iter().enumerate() {
        if ch.is_alphanumeric() {
            for lc in ch.to_lowercase() {
                current.push(lc);
            }
        } else if (ch == '\'' || ch == '-')
            && !current.is_empty()
            && chars.get(i + 1).is_some_and(|c| c.is_alphanumeric())
        {
            // keep intra-word apostrophes and hyphens
            current.push(ch);
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

fn is_vowel(bytes: &[u8], i: usize) -> bool {
    match bytes[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => true,
        b'y' => i > 0 && !is_vowel(bytes, i - 1),
        _ => false,
    }
}

fn has_vowel(bytes: &[u8]) -> bool {
    (0..bytes.len()).any(|i| is_vowel(bytes, i))
}

fn undouble(base: &str) -> String {
    let b = base.as_bytes();
    let n = b.len();
    if n >= 2 && b[n - 1] == b[n - 2] && !matches!(b[n - 1], b'l' | b's' | b'z') && !is_vowel(b, n - 1)
    {
        base[..n - 1].to_string()
    } else {
        base.to_string()
    }
}

fn oracle_stem(word: &str) -> String {
    let mut w = word.to_string();
    if w.len() < 4 || !w.is_ascii() {
        return w;
    }

    // Step 1: plurals and -es/-ies
    if let Some(base) = w.strip_suffix("sses") {
        w = format!("{base}ss");
    } else if let Some(base) = w.strip_suffix("ies") {
        w = format!("{base}i");
    } else if w.ends_with('s') && !w.ends_with("ss") && !w.ends_with("us") {
        w.pop();
    }

    // Step 2: -ed / -ing (only when a vowel remains in the stem)
    if let Some(base) = w.strip_suffix("ing") {
        if has_vowel(base.as_bytes()) && base.len() >= 3 {
            w = undouble(base);
        }
    } else if let Some(base) = w.strip_suffix("ed") {
        if has_vowel(base.as_bytes()) && base.len() >= 3 {
            w = undouble(base);
        }
    }

    // Step 3: adverbial/nominal suffixes
    for (suffix, replacement) in [
        ("ational", "ate"),
        ("ization", "ize"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("iveness", "ive"),
        ("tional", "tion"),
        ("biliti", "ble"),
        ("entli", "ent"),
        ("ousli", "ous"),
        ("ment", ""),
        ("ness", ""),
        ("ally", "al"),
        ("ly", ""),
    ] {
        if let Some(base) = w.strip_suffix(suffix) {
            if base.len() >= 3 {
                w = format!("{base}{replacement}");
            }
            break;
        }
    }

    // Final y -> i normalisation so "happy"/"happi(ness)" merge.
    if w.len() > 3 && w.ends_with('y') {
        w.pop();
        w.push('i');
    }
    w
}

/// The reranker's `caps` closure (the embedder's `proper` and the reader's
/// copy differed only in spelling).
fn oracle_caps(text: &str) -> BTreeSet<String> {
    text.split_whitespace()
        .filter(|w| w.chars().next().is_some_and(char::is_uppercase))
        .map(|w| {
            let mut t = w.trim_matches(|c: char| !c.is_alphanumeric()).to_lowercase();
            if let Some(base) = t.strip_suffix("'s") {
                t = base.to_string();
            }
            t
        })
        .filter(|w| !w.is_empty() && !is_stopword(w))
        .collect()
}

const ABBREVIATIONS: &[&str] = &[
    "mr", "mrs", "ms", "dr", "prof", "sr", "jr", "st", "vs", "etc", "e.g", "i.e", "fig", "eq",
    "al", "inc", "ltd", "co", "no", "vol", "pp",
];

fn oracle_split_sentences(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut sentences = Vec::new();
    let mut start = 0usize;
    let mut i = 0usize;
    while i < chars.len() {
        let ch = chars[i];
        if ch == '.' || ch == '!' || ch == '?' {
            // Consume runs of terminators ("?!", "...").
            let mut end = i + 1;
            while end < chars.len() && matches!(chars[end], '.' | '!' | '?') {
                end += 1;
            }
            // Trailing closers stay with the sentence.
            while end < chars.len() && matches!(chars[end], '"' | '\'' | ')' | ']' | '”' | '’') {
                end += 1;
            }
            let is_boundary = if ch == '.' && end == i + 1 {
                !oracle_period_is_internal(&chars, i)
            } else {
                true
            };
            if is_boundary {
                let sentence: String = chars[start..end].iter().collect();
                let trimmed = sentence.trim();
                if !trimmed.is_empty() {
                    sentences.push(trimmed.to_string());
                }
                start = end;
            }
            i = end;
        } else {
            i += 1;
        }
    }
    if start < chars.len() {
        let tail: String = chars[start..].iter().collect();
        let trimmed = tail.trim();
        if !trimmed.is_empty() {
            sentences.push(trimmed.to_string());
        }
    }
    sentences
}

fn oracle_period_is_internal(chars: &[char], idx: usize) -> bool {
    // Number like 3.10
    let prev_digit = idx > 0 && chars[idx - 1].is_ascii_digit();
    let next_digit = chars.get(idx + 1).is_some_and(|c| c.is_ascii_digit());
    if prev_digit && next_digit {
        return true;
    }
    // Collect the word before the period.
    let mut j = idx;
    while j > 0 && (chars[j - 1].is_alphanumeric() || chars[j - 1] == '.') {
        j -= 1;
    }
    let word: String = chars[j..idx].iter().collect::<String>().to_lowercase();
    if word.len() == 1 && word.chars().next().is_some_and(char::is_alphabetic) {
        return true; // single initial "J."
    }
    ABBREVIATIONS.contains(&word.as_str())
}

/// Everything the grammar branches on: case, digits, the two intra-word
/// marks, `_`, whitespace, punctuation, multi-char lowercase expansions
/// (`İ`), final sigma, a titlecase digraph.
const HOSTILE: &str = "[-a-eA-E0-2'_ .,;—İßΣσéǅ\t\n]{0,60}";

/// What `split_sentences` branches on: terminators, closers, digits around
/// periods, initials, every abbreviation in both cases, and the characters
/// whose lowercase is (or starts with) an ASCII letter.
const SENTENCE_PIECES: [&str; 48] = [
    ".", ".", ". ", "!", "?", "\"", "'", ")", "]", "”", "’", " ", "  ", "0", "7", "3.1", "a", "J",
    "\u{212A}", "İ", "ſ", "Σ", "é", "mr", "Mrs", "MS", "dr", "Prof", "sr", "JR", "st", "vs", "etc",
    "e.g", "I.E", "fig", "Eq", "al", "inc", "LTD", "co", "no", "vol", "pp", "word", "Two words", "\t",
    "\u{a0}",
];

/// Pieces the stemmer's steps look for, to be chained after a random head.
const SUFFIXES: [&str; 24] = [
    "ss", "sses", "ies", "us", "s", "ing", "ed", "ational", "ization", "fulness", "ousness",
    "iveness", "tional", "biliti", "entli", "ousli", "ment", "ness", "ally", "ly", "y", "tt", "ll",
    "é",
];

fn check_text(text: &str, buf: &mut TokenBuf, set: &mut WordSet) {
    let want = oracle_tokenize(text);
    buf.fill(text);
    assert_eq!(buf.iter().collect::<Vec<_>>(), want, "{text:?}");
    assert_eq!(buf.len(), want.len());
    assert_eq!(buf.is_empty(), want.is_empty());
    assert_eq!(tokenize(text), want);
    let content: Vec<String> = want.iter().filter(|t| !is_stopword(t)).cloned().collect();
    assert_eq!(tokenize_filtered(text), content);
    let mut stems = Vec::new();
    buf.for_each_stem(|s| stems.push(s.to_string()));
    assert_eq!(stems, want.iter().map(|t| oracle_stem(t)).collect::<Vec<_>>());
    for (i, token) in want.iter().enumerate() {
        assert_eq!(buf.get(i), token);
        assert_eq!(buf.is_stop(i), is_stopword(token), "{token:?}");
        assert_eq!(buf.with_stem(i), (token.as_str(), oracle_stem(token).as_str()));
    }
    proper_nouns(text, set);
    assert_eq!(set.iter().map(str::to_string).collect::<BTreeSet<_>>(), oracle_caps(text), "{text:?}");
    assert_eq!(set.len(), oracle_caps(text).len());
}

#[test]
fn hand_picked_texts_match_the_oracles_through_one_reused_buffer() {
    let mut buf = TokenBuf::new();
    let mut set = WordSet::new();
    for text in [
        "",
        "  ...  ",
        "Whiskers' eyes — Whiskers's EYES; state-of-the-art it's 'quoted' İstanbul",
        "the of and is it's",
        "snake_case __x__ a_b",
        "rock-'n'-roll -leading trailing- do--uble it''s 'tis",
        "ΟΔΟΣ ΣΟΦΌΣ ǅungla ǆ Ǆ ẞ ß",
        "GPT-4 costs 10 dollars.\nThe Caresses, the ponies; hopping, falling. Happily generalizations!",
        "a",
        "x'",
        "'x",
    ] {
        check_text(text, &mut buf, &mut set);
    }
}

/// The slices are the old `String`s, and each lies inside `text`.
fn check_sentences(text: &str) {
    let got = split_sentences(text);
    assert_eq!(got, oracle_split_sentences(text), "{text:?}");
    let range = text.as_bytes().as_ptr_range();
    for sentence in got {
        let s = sentence.as_bytes().as_ptr_range();
        assert!(range.start <= s.start && s.end <= range.end, "{sentence:?} is not a slice of {text:?}");
    }
}

#[test]
fn hand_picked_paragraphs_split_like_the_old_splitter() {
    for text in [
        "",
        " ",
        ".",
        "...",
        " . ! ? ",
        "a",
        "I have a cat. His name is Whiskers.",
        "Really?! Yes. Go!",
        "Dr. Smith arrived. He sat down.  ",
        "The CPU runs at 3.10GHz. It is fast. v1.2. 3. 4.x .5",
        "J. Smith wrote it. We read it. İ. K. \u{212A}. ſ. é. Σ. ß.",
        "He said \"stop.\" Then (he left.) [Gone.] “Quoted.” ‘Single.’ it's.' done",
        "Wait... Now go.?!\"')]”’ tail",
        "See e.g. Fig. 3 vs. eq. 4 et al. Inc. MR. Mrs. PROF. x.e.g. i.e. no. No.",
        "etc.e.g.i.e. a.b. co.Ltd. vol.pp. 1.a a.1 １.２ ٣.٤",
        "St\u{212A}. \u{212A}o. ſt. DŽ. ǅ. İnc. ıNC. Σ.Σ. ΟΔΟΣ. ",
        "trailing closers only \"')]”’",
        ".\"leading. \u{a0}nbsp.\u{a0}\u{2003}em. \ttab.\n newline.",
    ] {
        check_sentences(text);
    }
}

#[test]
fn stem_into_overwrites_its_buffer_with_the_old_stem() {
    let mut out = String::from("left over from the last word");
    for word in [
        "", "a", "is", "red", "bus", "sing", "cats", "ponies", "classes", "caresses", "jumped",
        "jumping", "hopping", "falling", "fizzed", "bled", "bring", "agreed", "quickly",
        "happiness", "government", "happy", "relational", "generalization", "hopefulness",
        "graciousness", "decisiveness", "conditional", "possibiliti", "decentli", "analogousli",
        "ally", "only", "fly", "café", "naïvely", "state-of-the-art", "whiskers's", "yyyy",
        "sses", "ies", "ings", "eding", "lying", "ssss",
    ] {
        stem_into(word, &mut out);
        assert_eq!(out, oracle_stem(word), "{word:?}");
        assert_eq!(stem(word), out);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn buffer_tokens_are_the_old_tokenizer_s(text in HOSTILE) {
        check_text(&text, &mut TokenBuf::new(), &mut WordSet::new());
    }

    #[test]
    fn sentences_are_the_old_splitter_s(
        pieces in proptest::collection::vec(0..SENTENCE_PIECES.len() + 40, 0..40),
        hostile in HOSTILE,
    ) {
        // Two thirds noise from the tokenizer's alphabet, one third pieces
        // the splitter branches on.
        let mut noise = hostile.chars();
        let text: String = pieces
            .iter()
            .map(|&i| match SENTENCE_PIECES.get(i) {
                Some(piece) => piece.to_string(),
                None => noise.next().map(String::from).unwrap_or_default(),
            })
            .collect();
        check_sentences(&text);
    }

    #[test]
    fn stem_into_is_the_old_stem(
        head in "[-a-z']{0,5}",
        tail in proptest::collection::vec(0..SUFFIXES.len(), 0..4),
    ) {
        let word: String = std::iter::once(head.as_str())
            .chain(tail.iter().map(|&i| SUFFIXES[i]))
            .collect();
        let mut out = String::new();
        stem_into(&word, &mut out);
        prop_assert_eq!(out, oracle_stem(&word), "{:?}", word);
    }
}
