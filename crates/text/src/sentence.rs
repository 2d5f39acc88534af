//! Sentence and paragraph splitting.
//!
//! The SAGE workflow (paper §III-A) first splits a corpus into paragraphs on
//! `'\n'`, then the segmentation model decides, for each pair of adjacent
//! sentences, whether they belong in the same chunk. This module provides
//! both splits.

/// Abbreviations after which a period does *not* end a sentence.
const ABBREVIATIONS: &[&str] = &[
    "mr", "mrs", "ms", "dr", "prof", "sr", "jr", "st", "vs", "etc", "e.g", "i.e", "fig", "eq",
    "al", "inc", "ltd", "co", "no", "vol", "pp",
];

/// Split text into paragraphs on newlines, trimming and dropping empties.
pub fn split_paragraphs(text: &str) -> Vec<&str> {
    text.split('\n')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .collect()
}

/// Split a paragraph into sentences: each is a trimmed slice of `text`, in
/// order, non-empty.
///
/// Sentence terminators are `.`, `!`, `?` (optionally followed by closing
/// quotes/brackets). Periods after known abbreviations, inside numbers
/// (`3.10GHz`) or single initials (`J. Smith`) do not terminate.
pub fn split_sentences(text: &str) -> Vec<&str> {
    fn push<'a>(sentences: &mut Vec<&'a str>, sentence: &'a str) {
        let trimmed = sentence.trim();
        if !trimmed.is_empty() {
            sentences.push(trimmed);
        }
    }
    let bytes = text.as_bytes();
    let mut sentences = Vec::new();
    let mut start = 0usize;
    let mut i = 0usize;
    // The terminators are ASCII, so a byte scan finds them and every index
    // below is a char boundary.
    while let Some(offset) = bytes[i..].iter().position(|b| matches!(b, b'.' | b'!' | b'?')) {
        i += offset;
        // Consume runs of terminators ("?!", "...").
        let mut end = i + 1;
        while matches!(bytes.get(end), Some(b'.' | b'!' | b'?')) {
            end += 1;
        }
        // Trailing closers stay with the sentence.
        while let Some(closer) =
            text[end..].chars().next().filter(|c| matches!(c, '"' | '\'' | ')' | ']' | '”' | '’'))
        {
            end += closer.len_utf8();
        }
        let lone_period = bytes[i] == b'.' && end == i + 1;
        if !(lone_period && period_is_internal(text, i)) {
            push(&mut sentences, &text[start..end]);
            start = end;
        }
        i = end;
    }
    push(&mut sentences, &text[start..]);
    sentences
}

/// Decide whether the period at byte `idx` is internal (abbreviation,
/// number, initial) rather than a sentence boundary.
fn period_is_internal(text: &str, idx: usize) -> bool {
    let bytes = text.as_bytes();
    // Number like 3.10
    let prev_digit = idx > 0 && bytes[idx - 1].is_ascii_digit();
    let next_digit = bytes.get(idx + 1).is_some_and(u8::is_ascii_digit);
    if prev_digit && next_digit {
        return true;
    }
    // The word before the period.
    let before = &text[..idx];
    let word = &before[before.trim_end_matches(|c: char| c.is_alphanumeric() || c == '.').len()..];
    // Single initial "J.", or a known abbreviation. Every target is ASCII,
    // so only a word outside ASCII needs Unicode lowercasing to compare.
    if word.is_ascii() {
        (word.len() == 1 && bytes[idx - 1].is_ascii_alphabetic())
            || ABBREVIATIONS.iter().any(|abbr| word.eq_ignore_ascii_case(abbr))
    } else {
        let lower = || word.chars().flat_map(char::to_lowercase);
        (lower().count() == 1 && lower().all(|c| c.is_ascii_alphabetic()))
            || ABBREVIATIONS.iter().any(|abbr| lower().eq(abbr.chars()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paragraphs_split_on_newline() {
        let ps = split_paragraphs("First para.\nSecond para.\n\n  \nThird.");
        assert_eq!(ps, vec!["First para.", "Second para.", "Third."]);
    }

    #[test]
    fn simple_sentences() {
        let s = split_sentences("I have a cat. His name is Whiskers.");
        assert_eq!(s, vec!["I have a cat.", "His name is Whiskers."]);
    }

    #[test]
    fn exclamation_and_question() {
        let s = split_sentences("Really?! Yes. Go!");
        assert_eq!(s, vec!["Really?!", "Yes.", "Go!"]);
    }

    #[test]
    fn abbreviation_not_boundary() {
        let s = split_sentences("Dr. Smith arrived. He sat down.");
        assert_eq!(s, vec!["Dr. Smith arrived.", "He sat down."]);
    }

    #[test]
    fn decimal_number_not_boundary() {
        let s = split_sentences("The CPU runs at 3.10GHz. It is fast.");
        assert_eq!(s, vec!["The CPU runs at 3.10GHz.", "It is fast."]);
    }

    #[test]
    fn initial_not_boundary() {
        let s = split_sentences("J. Smith wrote it. We read it.");
        assert_eq!(s, vec!["J. Smith wrote it.", "We read it."]);
    }

    #[test]
    fn trailing_fragment_kept() {
        let s = split_sentences("Complete sentence. trailing fragment without period");
        assert_eq!(s.len(), 2);
        assert_eq!(s[1], "trailing fragment without period");
    }

    #[test]
    fn quotes_stay_attached() {
        let s = split_sentences("He said \"stop.\" Then he left.");
        assert_eq!(s[0], "He said \"stop.\"");
        assert_eq!(s[1], "Then he left.");
    }

    #[test]
    fn empty_input() {
        assert!(split_sentences("").is_empty());
        assert!(split_paragraphs("").is_empty());
    }

    #[test]
    fn ellipsis_single_boundary() {
        let s = split_sentences("Wait... Now go.");
        assert_eq!(s, vec!["Wait...", "Now go."]);
    }
}
