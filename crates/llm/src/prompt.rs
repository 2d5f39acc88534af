//! Prompt assembly (paper §III-C step 1: "we craft a prompt incorporating
//! both the question and the retrieved chunks, tailored to the question's
//! type — be it multiple-choice or open-ended").
//!
//! The prompts exist so token accounting is honest: the simulated reader
//! does not parse them (it receives structured arguments), but every call's
//! input-token count is computed from the exact prompt string an API-based
//! RAG system would send.

use sage_text::{count_tokens, TokenTally};

/// Fixed instruction overhead included in every call's token count.
pub const PROMPT_OVERHEAD_TOKENS: usize = 40;

/// The open prompt's instruction, up to the first chunk.
const OPEN_HEAD: &str = "Answer the question using only the context below. \
    If the context does not contain the answer, reply \"unanswerable\".\n\nContext:\n";
const QUESTION_HEAD: &str = "\nQuestion: ";
const ANSWER_TAIL: &str = "\nAnswer:";
const OPTIONS_HEAD: &str = "\nOptions:\n";
const OPTIONS_TAIL: &str = "Reply with the letter of the correct option.";

/// The tally of a chunk's `[n] ` label: two brackets and the number.
const LABEL: TokenTally = TokenTally { words: 1, punct: 2 };
/// The tally of the parentheses around an option's letter.
const PARENS: TokenTally = TokenTally { words: 0, punct: 2 };

/// Open-ended QA prompt.
pub fn open_prompt(question: &str, context: &[String]) -> String {
    let mut p = String::with_capacity(256 + context.iter().map(String::len).sum::<usize>());
    p.push_str(OPEN_HEAD);
    for (i, chunk) in context.iter().enumerate() {
        p.push_str(&format!("[{}] {}\n", i + 1, chunk));
    }
    p.push_str(QUESTION_HEAD);
    p.push_str(question);
    p.push_str(ANSWER_TAIL);
    p
}

/// The letter labelling option `i`.
fn option_letter(i: usize) -> char {
    (b'A' + i as u8) as char
}

/// Multiple-choice QA prompt.
pub fn mc_prompt(question: &str, options: &[String], context: &[String]) -> String {
    let mut p = open_prompt(question, context);
    p.push_str(OPTIONS_HEAD);
    for (i, opt) in options.iter().enumerate() {
        p.push_str(&format!("({}) {}\n", option_letter(i), opt));
    }
    p.push_str(OPTIONS_TAIL);
    p
}

/// Input-token count of a prompt (plus fixed overhead).
pub fn prompt_tokens(prompt: &str) -> usize {
    count_tokens(prompt) + PROMPT_OVERHEAD_TOKENS
}

/// `prompt_tokens` of a prompt from the tallies of its pieces, each piece
/// joined to the next at whitespace or punctuation.
pub(crate) fn tally_tokens(tally: TokenTally) -> usize {
    tally.tokens() + PROMPT_OVERHEAD_TOKENS
}

/// The tally of [`open_prompt`], counted from its pieces without building
/// it: every chunk and the question sit between whitespace.
fn open_tally(question: &str, context: &[String]) -> TokenTally {
    let mut tally = TokenTally::of(OPEN_HEAD);
    for chunk in context {
        tally += LABEL + TokenTally::of(chunk);
    }
    tally + TokenTally::of(QUESTION_HEAD) + TokenTally::of(question) + TokenTally::of(ANSWER_TAIL)
}

/// `prompt_tokens(&open_prompt(question, context))`.
pub(crate) fn open_prompt_tokens(question: &str, context: &[String]) -> usize {
    tally_tokens(open_tally(question, context))
}

/// `prompt_tokens(&mc_prompt(question, options, context))`: each option
/// sits between whitespace, its letter between parentheses.
pub(crate) fn mc_prompt_tokens(question: &str, options: &[String], context: &[String]) -> usize {
    let mut tally = open_tally(question, context) + TokenTally::of(OPTIONS_HEAD);
    let mut letter = [0u8; 4];
    for (i, opt) in options.iter().enumerate() {
        let letter = option_letter(i).encode_utf8(&mut letter);
        tally += PARENS + TokenTally::of(letter) + TokenTally::of(opt);
    }
    tally_tokens(tally + TokenTally::of(OPTIONS_TAIL))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_prompt_contains_parts() {
        let p = open_prompt("Why?", &["because.".to_string(), "reasons.".to_string()]);
        assert!(p.contains("Why?"));
        assert!(p.contains("[1] because."));
        assert!(p.contains("[2] reasons."));
    }

    #[test]
    fn mc_prompt_letters() {
        let p = mc_prompt(
            "Pick one",
            &["first".into(), "second".into(), "third".into()],
            &[],
        );
        assert!(p.contains("(A) first"));
        assert!(p.contains("(C) third"));
    }

    /// Pieces that join into words when nothing separates them: the two
    /// intra-word marks, digits, non-ASCII letters and marks, whitespace
    /// of both kinds, punctuation.
    const PIECES: &str = "[-'a-cA0-9é ß’\u{a0}\u{85}\u{b}.,(\\[\n]{0,12}";

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn counted_prompts_are_the_built_prompts_counts(
            question in PIECES,
            context in proptest::collection::vec(PIECES, 0..6),
            options in proptest::collection::vec(PIECES, 0..5),
            answer in PIECES,
        ) {
            use crate::feedback::{feedback_prompt, feedback_prompt_tokens};
            proptest::prop_assert_eq!(
                open_prompt_tokens(&question, &context),
                prompt_tokens(&open_prompt(&question, &context))
            );
            proptest::prop_assert_eq!(
                mc_prompt_tokens(&question, &options, &context),
                prompt_tokens(&mc_prompt(&question, &options, &context))
            );
            proptest::prop_assert_eq!(
                feedback_prompt_tokens(&question, &context, &answer),
                prompt_tokens(&feedback_prompt(&question, &context, &answer))
            );
        }
    }

    #[test]
    fn tokens_grow_with_context() {
        let small = prompt_tokens(&open_prompt("q", &["short".into()]));
        let big = prompt_tokens(&open_prompt(
            "q",
            &vec!["a much longer context chunk with many words in it".to_string(); 5],
        ));
        assert!(big > small);
        assert!(small > PROMPT_OVERHEAD_TOKENS);
    }
}
