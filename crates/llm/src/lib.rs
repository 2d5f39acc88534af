//! # sage-llm
//!
//! A deterministic simulated LLM — the stand-in for GPT-3.5 / GPT-4 /
//! GPT-4o-mini / UnifiedQA-3B (see DESIGN.md's substitution table).
//!
//! The paper's claims about LLMs in a RAG pipeline are *behavioural*:
//!
//! 1. an LLM answers correctly when the target evidence is in context and
//!    interpretable (intro + fact together — limitation L1);
//! 2. noisy chunks mislead it with probability growing in the number and
//!    salience of distractors (Figure 8 — limitation L2);
//! 3. a missing target chunk forces failure (Figure 9);
//! 4. elimination ("which was NOT…") questions need *all* positive facts in
//!    context;
//! 5. stronger models resist distractors better (Table XII);
//! 6. inference cost is linear in tokens (Eq. 1).
//!
//! [`SimLlm`] implements exactly these behaviours with a textual candidate-
//! extraction reader: sentence relevance = entity match (with in-chunk
//! pronoun resolution) + content overlap; candidates are content n-grams
//! weighted by a language-prior IDF; answers are sampled with a
//! profile-dependent temperature. Everything is seeded per-call, so runs
//! are reproducible regardless of call order.
//!
//! [`profile::LlmProfile`] holds the proficiency/pricing/latency presets;
//! [`feedback`] implements the paper's Figure-6 self-feedback judge;
//! [`segmenter::LlmSegmenter`] prices GPT-4-as-segmenter for Figure 7.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types, reason = "tests may time and hash freely"))]

pub mod feedback;
pub mod finetune;
pub mod profile;
pub mod prompt;
pub mod reader;
pub mod segmenter;

pub use feedback::FeedbackOutcome;
pub use finetune::fine_tune;
pub use profile::LlmProfile;
pub use prompt::{mc_prompt, open_prompt, PROMPT_OVERHEAD_TOKENS};
pub use reader::{Answer, SimLlm};
pub use segmenter::LlmSegmenter;
