//! The paper's §VIII case studies, as programmatic drivers:
//!
//! * [`noisy_retrieval_sweep`] — Figure 8: sweep the fixed K and watch the
//!   answer flip from correct to distractor-supported as noise accumulates;
//! * [`missing_retrieval_sweep`] — Figure 9: an elimination question that
//!   fails at small K, succeeds at large K, and whose reranker score curve
//!   is smooth (so SAGE's gradient selection keeps extending);
//! * [`incomplete_chunks_case`] — Figure 10: fixed-length segmentation
//!   splits an intro+fact pair so the pronoun-form fact cannot be used;
//! * [`score_curves`] — Figure 5: the reranker's sorted score patterns for
//!   a focused vs. a broad question;
//! * [`segmentation_overhead`] — Figure 7: one article segmented by our
//!   model against GPT-4 as the segmenter, in time and in dollars.

use crate::config::{RetrieverKind, SageConfig};
use crate::models::TrainedModels;
use crate::pipeline::RagSystem;
use sage_llm::LlmProfile;
use std::time::Duration;

/// One K-sweep step.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Fixed K used.
    pub k: usize,
    /// Option the reader picked.
    pub picked: usize,
    /// Whether it was correct.
    pub correct: bool,
}

/// Outcome of a case study sweep plus SAGE's dynamic behaviour.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// The question.
    pub question: String,
    /// The options.
    pub options: Vec<String>,
    /// Index of the correct option.
    pub correct_option: usize,
    /// Fixed-K sweep results.
    pub sweep: Vec<SweepPoint>,
    /// Number of chunks SAGE's gradient selection chose.
    pub sage_selected: usize,
    /// Whether SAGE answered correctly.
    pub sage_correct: bool,
    /// Reranker scores of the candidates, sorted descending (the Figure
    /// 5 curve for this question).
    pub score_curve: Vec<f32>,
}

/// The Figure-8 corpus: one target fact plus many same-relation
/// conflicting distractors supporting one specific wrong option.
fn noisy_corpus() -> (String, String, Vec<String>, usize) {
    let mut paragraphs = vec![
        "Whiskers is a playful tabby cat. He has bright green eyes.".to_string(),
    ];
    // Distractors that lend support to "orange".
    for name in ["Patchy", "Brone", "Mossy", "Fidget", "Tufty", "Bramble", "Clover", "Dapple"] {
        paragraphs.push(format!(
            "{name} is another pet in the house. {name} has bright orange eyes."
        ));
    }
    // Generic filler.
    for i in 0..6 {
        paragraphs.push(format!(
            "The market square was quiet that season, stall {i}, while the town carried on."
        ));
    }
    let corpus = paragraphs.join("\n");
    let question = "What is the color of Whiskers's eyes?".to_string();
    let options: Vec<String> =
        ["green", "orange", "violet", "gray"].iter().map(|s| s.to_string()).collect();
    (corpus, question, options, 0)
}

/// The Figure-9 corpus: an inventor with many development facts spread
/// over several paragraphs, plus filler; the elimination question needs
/// most of them.
fn elimination_corpus() -> (String, String, Vec<String>, usize) {
    let devices = ["vapor engine", "tide clock", "salt battery", "spring loom", "gear press"];
    let mut paragraphs = vec!["Vorden was well known in the region.".to_string()];
    // Interleave unrelated scenery between the development facts so the
    // evidence spreads across many retrieval chunks — the paper's missing-
    // retrieval setup needs the facts to *not* sit in one chunk.
    for (i, d) in devices.iter().enumerate() {
        paragraphs.push(format!(
            "In year {}, Vorden developed the {d}. The work took months.",
            1890 + i * 3
        ));
        paragraphs.push(format!(
            "Rain tapped gently on the old roof, night {i}, and the day passed slowly."
        ));
    }
    let corpus = paragraphs.join("\n");
    let question = "Which device was not developed by Vorden?".to_string();
    // Three held devices + the unheld echo compass (correct).
    let options: Vec<String> = ["vapor engine", "salt battery", "echo compass", "gear press"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    (corpus, question, options, 2)
}

fn run_case(
    models: &TrainedModels,
    profile: LlmProfile,
    corpus: String,
    question: String,
    options: Vec<String>,
    correct: usize,
    max_k: usize,
) -> CaseStudy {
    let corpus = vec![corpus];
    // Fixed-K sweep: selection off, min_k = K.
    let mut sweep = Vec::new();
    for k in 1..=max_k {
        let cfg = SageConfig {
            min_k: k,
            use_rerank: true,
            use_segmentation: true,
            use_selection: false,
            use_feedback: false,
            ..SageConfig::default()
        };
        let system = RagSystem::build(models, RetrieverKind::OpenAiSim, cfg, profile, &corpus);
        let r = system.answer_multiple_choice(&question, &options);
        // A reader that declines to pick is scored as the out-of-range
        // option index, i.e. incorrect, rather than aborting the sweep.
        let picked = r.picked_option.unwrap_or(options.len());
        sweep.push(SweepPoint { k, picked, correct: picked == correct });
    }
    // SAGE with gradient selection (no feedback, to isolate selection).
    let sage_cfg = SageConfig { use_feedback: false, ..SageConfig::sage() };
    let system = RagSystem::build(models, RetrieverKind::OpenAiSim, sage_cfg, profile, &corpus);
    let r = system.answer_multiple_choice(&question, &options);
    let score_curve = system.rerank_scores(&question);
    CaseStudy {
        question,
        options,
        correct_option: correct,
        sweep,
        sage_selected: r.selected.len(),
        sage_correct: r.picked_option == Some(correct),
        score_curve,
    }
}

/// Figure 8: noisy retrieval. The reader is correct at small K and drifts
/// toward the distractor-supported option as K grows.
pub fn noisy_retrieval_sweep(models: &TrainedModels, profile: LlmProfile) -> CaseStudy {
    let (corpus, question, options, correct) = noisy_corpus();
    run_case(models, profile, corpus, question, options, correct, 15)
}

/// Figure 9: missing retrieval. The elimination question fails at small K
/// and succeeds once all development facts are in context; SAGE's smooth
/// score curve makes gradient selection keep extending.
pub fn missing_retrieval_sweep(models: &TrainedModels, profile: LlmProfile) -> CaseStudy {
    let (corpus, question, options, correct) = elimination_corpus();
    run_case(models, profile, corpus, question, options, correct, 15)
}

/// Figure 10 outcome: the same question answered over fixed-length chunks
/// vs. semantic chunks.
#[derive(Debug, Clone)]
pub struct SegmentationCase {
    /// The question.
    pub question: String,
    /// Gold answer.
    pub gold: String,
    /// Answer over fixed-length (mid-sentence) chunks.
    pub fixed_answer: String,
    /// Answer over semantic chunks.
    pub semantic_answer: String,
    /// Whether the fixed-length chunking separated the fact from its
    /// antecedent (diagnosed on the actual chunks).
    pub fixed_split_evidence: bool,
}

/// Figure 10: ineffective corpus segmentation. A pronoun-form fact whose
/// antecedent lands in a different fixed-length chunk cannot be used.
pub fn incomplete_chunks_case(models: &TrainedModels, profile: LlmProfile) -> SegmentationCase {
    // A long lead-in pushes the intro and the pronoun fact across the
    // fixed-length chunk boundary.
    let corpus_text = "The festival had gone on for three long days and the lanterns still \
         burned along every street of the town while visitors kept arriving from distant \
         villages with carts and songs. Gavir is a quiet shepherd. He sang a tribal song for \
         the moderator. The crowd fell silent when the song ended and the judges wrote \
         their notes slowly."
        .to_string();
    let question = "What did Gavir sing for the moderator?".to_string();
    let gold = "tribal song".to_string();

    use sage_segment::{FixedLengthSegmenter, Segmenter, SemanticSegmenter};
    // Fixed-length segmentation splits the intro from the pronoun fact for
    // *some* chunk sizes (the paper's point is that no fixed size is safe);
    // scan a few realistic sizes and demonstrate one that does.
    let mut fixed_chunks = FixedLengthSegmenter { max_tokens: 28 }.segment(&corpus_text);
    let splits = |chunks: &[String]| {
        !chunks
            .iter()
            .any(|c| c.contains("Gavir is a quiet shepherd") && c.contains("sang a tribal song"))
    };
    let mut fixed_split_evidence = splits(&fixed_chunks);
    for max_tokens in [18usize, 24, 36, 12, 20] {
        if fixed_split_evidence {
            break;
        }
        fixed_chunks = FixedLengthSegmenter { max_tokens }.segment(&corpus_text);
        fixed_split_evidence = splits(&fixed_chunks);
    }
    let semantic = SemanticSegmenter::with_params(models.segmentation.clone(), 0.55, 400);
    let semantic_chunks = semantic.segment(&corpus_text);

    let llm = sage_llm::SimLlm::new(profile);
    let fixed_answer = llm.answer_open(&question, &fixed_chunks).text;
    let semantic_answer = llm.answer_open(&question, &semantic_chunks).text;
    SegmentationCase { question, gold, fixed_answer, semantic_answer, fixed_split_evidence }
}

/// One Figure 7 row: what segmenting an article cost with our model and
/// with GPT-4 as the segmenter.
#[derive(Debug, Clone)]
pub struct SegmentationOverhead {
    /// LLM tokens in the article.
    pub tokens: usize,
    /// Our model's wall time, as measured by the caller.
    pub sage_time: Duration,
    /// Simulated GPT-4 latency (generation speed; corpus in, corpus out).
    pub gpt4_time: Duration,
    /// `sage_time` priced at the paper's rented RTX 3090 ($5.30 a day).
    pub sage_dollars: f64,
    /// The GPT-4 calls priced with Eq. 1 ($10/M input + $30/M output).
    pub gpt4_dollars: f64,
}

impl SegmentationOverhead {
    /// Share of GPT-4's time the model saves.
    pub fn time_saved(&self) -> f64 {
        1.0 - self.sage_time.as_secs_f64() / self.gpt4_time.as_secs_f64()
    }

    /// Share of GPT-4's bill the model saves.
    pub fn money_saved(&self) -> f64 {
        1.0 - self.sage_dollars / self.gpt4_dollars
    }

    /// The paper's shape: the model saves ≥ 90 % of the time and ≥ 99 % of
    /// the money (the paper reports ≈ 90 % and ≈ 99.7 % on every dataset).
    pub fn holds(&self) -> bool {
        self.time_saved() >= 0.90 && self.money_saved() >= 0.99
    }
}

/// Figure 7 for one article. `sage_time` is the caller's measurement of
/// `SemanticSegmenter::segment` over `text`; the GPT-4 side is modeled.
pub fn segmentation_overhead(text: &str, sage_time: Duration) -> SegmentationOverhead {
    const RTX3090_DOLLARS_PER_SECOND: f64 = 5.3 / (24.0 * 3600.0);
    let (_, cost, gpt4_time) = sage_llm::LlmSegmenter::new(LlmProfile::gpt4()).segment(text);
    SegmentationOverhead {
        tokens: sage_text::count_tokens(text),
        sage_time,
        gpt4_time,
        sage_dollars: sage_time.as_secs_f64() * RTX3090_DOLLARS_PER_SECOND,
        gpt4_dollars: cost.dollars(sage_eval::PriceTable::gpt4()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::tiny_models as models;

    #[test]
    fn segmentation_model_saves_the_paper_s_time_and_money_on_every_dataset() {
        use sage_corpus::datasets::{narrativeqa, qasper, quality, SizeConfig};
        use sage_segment::{Segmenter, SemanticSegmenter};
        let size = SizeConfig { num_docs: 1, questions_per_doc: 1, seed: 7 };
        let segmenter = SemanticSegmenter::new(models().segmentation.clone());
        for dataset in [quality::generate(size), narrativeqa::generate(size), qasper::generate(size)] {
            let text = dataset.documents[0].text();
            let start = std::time::Instant::now();
            let chunks = segmenter.segment(&text);
            let row = segmentation_overhead(&text, start.elapsed());
            assert!(!chunks.is_empty());
            assert!(row.holds(), "{row:?}: time −{:.4}, money −{:.6}", row.time_saved(), row.money_saved());
        }
    }

    #[test]
    fn noisy_sweep_correct_at_low_k() {
        let cs = noisy_retrieval_sweep(models(), LlmProfile::gpt4o_mini());
        assert_eq!(cs.sweep.len(), 15);
        // The first few K values retrieve the target first: correct.
        assert!(cs.sweep[0].correct || cs.sweep[1].correct, "{:?}", &cs.sweep[..3]);
        // SAGE stays correct by cutting noise.
        assert!(cs.sage_correct, "SAGE selected {} chunks", cs.sage_selected);
        // Score curve is descending.
        for w in cs.score_curve.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn missing_sweep_needs_large_k() {
        let cs = missing_retrieval_sweep(models(), LlmProfile::gpt4());
        let small_k_correct = cs.sweep[..3].iter().filter(|p| p.correct).count();
        let large_k_correct = cs.sweep[10..].iter().filter(|p| p.correct).count();
        assert!(
            large_k_correct > small_k_correct,
            "large K should beat small K: {:?}",
            cs.sweep
        );
        // SAGE keeps extending on the smooth curve: selects more than the
        // default min_k.
        assert!(cs.sage_selected >= 7, "selected {}", cs.sage_selected);
    }

    #[test]
    fn incomplete_chunks_fixed_splits_semantic_does_not() {
        let cs = incomplete_chunks_case(models(), LlmProfile::gpt4o_mini());
        assert!(cs.fixed_split_evidence, "fixed-length chunking should split the evidence");
        assert!(
            cs.semantic_answer.contains("song") || cs.semantic_answer.contains("tribal"),
            "semantic answer: {}",
            cs.semantic_answer
        );
    }
}
