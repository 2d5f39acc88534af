//! The self-feedback judge (paper §VI, Figure 6) — SAGE's third
//! contribution (C3).
//!
//! After each QA round the LLM is asked to (1) score its own answer from
//! 1–10 and (2) emit a context adjustment: −1 ("redundant chunks present")
//! or +1 ("context insufficient"). Figure 6's prompt even hard-codes the
//! output prior — "less context (−1) with a probability of 60%, more
//! context (1) with 40%" — which we reproduce as the tie-break prior when
//! neither signal dominates.

use crate::prompt::tally_tokens;
use crate::reader::{position, sorted_distinct, Answer, SimLlm};
use rand::Rng;
use sage_eval::Cost;
use sage_text::{split_sentences, TokenBuf, TokenTally};
use std::time::Duration;

/// Result of one self-feedback call.
#[derive(Debug, Clone, Copy)]
pub struct FeedbackOutcome {
    /// Evaluation score 1–10; the pipeline accepts the answer when
    /// `score >= fs` (paper default `fs = 9`).
    pub score: u8,
    /// Context adjustment: −1 = drop a chunk (`min_k -= 1`),
    /// +1 = fetch more (`min_k += 1`).
    pub adjustment: i8,
    /// Token usage of the feedback call.
    pub cost: Cost,
    /// Simulated latency of the feedback call.
    pub latency: Duration,
}

const PROMPT_HEAD: &str = "Original Prompt: ";
const CONTEXT_HEAD: &str = "\nContext:\n";
const ANSWER_HEAD: &str = "Original Answer: ";
const OBJECTIVE: &str = "\nObjective (O): Evaluate the original answer on a scale of 1 to 10 based \
    on its accuracy and reasonability. Additionally, determine if the original prompt needs more \
    related context (1) or less context (-1).\nResponse (R): Evaluation Score: [1-10]. Context \
    Adjustment: [1, -1].";

/// The Figure-6 feedback prompt (for honest token accounting).
pub fn feedback_prompt(question: &str, context: &[String], answer: &str) -> String {
    let mut p = String::new();
    p.push_str(PROMPT_HEAD);
    p.push_str(question);
    p.push_str(CONTEXT_HEAD);
    for c in context {
        p.push_str(c);
        p.push('\n');
    }
    p.push_str(ANSWER_HEAD);
    p.push_str(answer);
    p.push_str(OBJECTIVE);
    p
}

/// `prompt_tokens(&feedback_prompt(question, context, answer))`, counted
/// from the pieces: the question, every chunk and the answer sit between
/// whitespace.
pub(crate) fn feedback_prompt_tokens(question: &str, context: &[String], answer: &str) -> usize {
    let pieces = [PROMPT_HEAD, question, CONTEXT_HEAD, ANSWER_HEAD, answer, OBJECTIVE];
    let chunks = context.iter().map(String::as_str);
    tally_tokens(pieces.into_iter().chain(chunks).map(TokenTally::of).sum())
}

/// The stems of the content words in `tokens`, sorted and without repeats.
fn distinct_stems(tokens: &mut TokenBuf) -> Vec<String> {
    let mut stems = Vec::new();
    for i in 0..tokens.len() {
        if !tokens.is_stop(i) {
            stems.push(tokens.with_stem(i).1.to_string());
        }
    }
    sorted_distinct(stems)
}

/// Whether `stemmed` is one of `stems` that sentence `n` hits for the first
/// time; `hit_by` holds the sentence that last hit each stem.
fn first_hit(stems: &[String], hit_by: &mut [usize], stemmed: &str, n: usize) -> bool {
    match position(stems, stemmed) {
        Some(k) if hit_by[k] != n => {
            hit_by[k] = n;
            true
        }
        _ => false,
    }
}

impl SimLlm {
    /// Run the self-feedback evaluation of Figure 6.
    pub fn self_feedback(
        &self,
        question: &str,
        context: &[String],
        answer: &Answer,
    ) -> FeedbackOutcome {
        let input_tokens = feedback_prompt_tokens(question, context, &answer.text);
        let output_tokens = 10;
        let mut cost = Cost::zero();
        cost.add_call(input_tokens, output_tokens);
        sage_telemetry::metrics::LLM_FEEDBACK_CALLS.inc();
        sage_telemetry::metrics::LLM_INPUT_TOKENS.add(input_tokens as u64);
        sage_telemetry::metrics::LLM_OUTPUT_TOKENS.add(output_tokens as u64);

        // Evidence support: does the answer text occur in a context
        // sentence that also touches the question's content words? Each
        // sentence counts the distinct question stems it hits and the
        // distinct answer stems, against the stems' last hitting sentence.
        let mut tokens = TokenBuf::new();
        tokens.fill(&answer.text);
        let answer_stems = distinct_stems(&mut tokens);
        tokens.fill(question);
        let negation = tokens.iter().any(|t| t == "not" || t.ends_with("n't"));
        let q_stems = distinct_stems(&mut tokens);
        let mut q_hit_by = vec![usize::MAX; q_stems.len()];
        let mut answer_hit_by = vec![usize::MAX; answer_stems.len()];
        let mut support = 0.0f32;
        let mut relevant_sentences = 0usize;
        let mut total_sentences = 0usize;
        for chunk in context {
            for sentence in split_sentences(chunk) {
                let n = total_sentences;
                total_sentences += 1;
                tokens.fill(sentence);
                let (mut q_overlap, mut answer_hits) = (0usize, 0usize);
                for i in 0..tokens.len() {
                    if tokens.is_stop(i) {
                        continue;
                    }
                    let (_, stemmed) = tokens.with_stem(i);
                    q_overlap += usize::from(first_hit(&q_stems, &mut q_hit_by, stemmed, n));
                    answer_hits +=
                        usize::from(first_hit(&answer_stems, &mut answer_hit_by, stemmed, n));
                }
                if q_overlap > 0 {
                    relevant_sentences += 1;
                }
                if !answer_stems.is_empty() && answer_hits == answer_stems.len() && q_overlap > 0 {
                    support = support.max(0.6 + 0.4 * (q_overlap as f32 / q_stems.len().max(1) as f32));
                }
            }
        }
        let unanswerable = answer.text == "unanswerable";
        // Elimination ("which was NOT…") answers are grounded *indirectly*:
        // the judge accepts them when the context covers the topic broadly
        // (the positives needed for elimination), not when the answer
        // itself appears near the question terms.
        if negation && support < 0.6 && relevant_sentences >= 4 && answer.confidence >= 0.4 {
            support = 0.7;
        }
        // Piecewise scoring: a fully grounded answer (every answer token in
        // one evidence sentence that also touches the question) is
        // acceptable — 9 or 10 — so the feedback loop terminates early on
        // good answers, exactly as a real judge accepts them. Partially or
        // un-grounded answers land below the fs = 9 acceptance bar.
        let score = if unanswerable {
            2.0
        } else if support >= 0.6 {
            if answer.confidence >= 0.2 {
                9.0 + f32::from(answer.confidence >= 0.45)
            } else {
                8.0
            }
        } else {
            (3.0 + 4.0 * answer.confidence).round()
        };
        let score = score.clamp(1.0, 10.0) as u8;

        // Context adjustment: insufficient evidence → more context; mostly
        // irrelevant sentences → less; otherwise Figure 6's 60/40 prior.
        let noise_ratio = if total_sentences == 0 {
            1.0
        } else {
            1.0 - relevant_sentences as f32 / total_sentences as f32
        };
        let mut rng = self.call_rng(&format!("fb|{question}|{}", context.len()));
        let adjustment = if unanswerable || support < 0.3 {
            1
        } else if noise_ratio > 0.6 || rng.random_range(0.0..1.0) < 0.6 {
            // Redundant context, or Figure 6's 60/40 "less context" prior.
            -1
        } else {
            1
        };

        let latency = self.profile().call_latency(output_tokens);
        FeedbackOutcome { score, adjustment, cost, latency }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::LlmProfile;

    fn answered(llm: &SimLlm, question: &str, context: &[String]) -> (Answer, FeedbackOutcome) {
        let a = llm.answer_open(question, context);
        let f = llm.self_feedback(question, context, &a);
        (a, f)
    }

    #[test]
    fn good_answer_scores_high() {
        let llm = SimLlm::new(LlmProfile::gpt4());
        let context = vec!["Whiskers is a tabby cat. He has bright green eyes.".to_string()];
        let (a, f) = answered(&llm, "What is the color of Whiskers's eyes?", &context);
        assert!(a.text.contains("green"));
        assert!(f.score >= 7, "score {} too low for a supported answer", f.score);
        assert!(f.cost.input_tokens > 0);
    }

    #[test]
    fn unanswerable_requests_more_context() {
        let llm = SimLlm::new(LlmProfile::gpt4());
        let context = vec!["The fog settled over the valley, as usual.".to_string()];
        let (a, f) = answered(&llm, "Where does Dorinwick live?", &context);
        assert_eq!(a.text, "unanswerable");
        assert!(f.score <= 4, "score {}", f.score);
        assert_eq!(f.adjustment, 1, "missing evidence must request more context");
    }

    #[test]
    fn noisy_context_requests_less() {
        let llm = SimLlm::new(LlmProfile::gpt4());
        let mut context = vec!["Whiskers is a tabby cat. He has bright green eyes.".to_string()];
        for i in 0..8 {
            context.push(format!(
                "The market square was quiet that season, row {i}, while the town carried on."
            ));
        }
        let (a, f) = answered(&llm, "What is the color of Whiskers's eyes?", &context);
        assert!(a.text.contains("green"));
        assert_eq!(f.adjustment, -1, "noise-dominated context should shrink");
    }

    #[test]
    fn adjustment_is_plus_or_minus_one() {
        let llm = SimLlm::new(LlmProfile::gpt35_turbo());
        for q in ["Where does X live?", "What color is Y?", "Who plays the cello?"] {
            let context = vec!["Some vaguely related text about towns.".to_string()];
            let (_, f) = answered(&llm, q, &context);
            assert!(f.adjustment == 1 || f.adjustment == -1);
            assert!((1..=10).contains(&f.score));
        }
    }

    #[test]
    fn deterministic() {
        let llm = SimLlm::new(LlmProfile::gpt4o_mini());
        let context = vec!["Whiskers has green eyes.".to_string()];
        let a = llm.answer_open("What color are the eyes of Whiskers?", &context);
        let f1 = llm.self_feedback("What color are the eyes of Whiskers?", &context, &a);
        let f2 = llm.self_feedback("What color are the eyes of Whiskers?", &context, &a);
        assert_eq!(f1.score, f2.score);
        assert_eq!(f1.adjustment, f2.adjustment);
    }
}
