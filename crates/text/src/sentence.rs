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

/// Split a paragraph into sentences.
///
/// Sentence terminators are `.`, `!`, `?` (optionally followed by closing
/// quotes/brackets). Periods after known abbreviations, inside numbers
/// (`3.10GHz`) or single initials (`J. Smith`) do not terminate.
pub fn split_sentences(text: &str) -> Vec<String> {
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
                !period_is_internal(&chars, i)
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

/// Decide whether the period at `idx` is internal (abbreviation, number,
/// initial) rather than a sentence boundary.
fn period_is_internal(chars: &[char], idx: usize) -> bool {
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
