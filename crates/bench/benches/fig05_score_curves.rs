//! **Figure 5** — the reranker's sorted relevance-score curves for two
//! question types: a focused factoid question (sharp drop after the
//! relevant chunks) and a broad elimination question (flat high region,
//! then the drop). These are the curves gradient selection (Algorithm 2)
//! cuts at.

use sage::core::case_studies::{
    missing_retrieval_sweep, noisy_retrieval_sweep, score_curves, ScoreCurves,
};
use sage::prelude::*;
use sage_bench::{header, models};

fn ascii_curve(scores: &[f32]) -> String {
    scores
        .iter()
        .map(|s| match (s * 10.0) as u32 {
            0 => '_',
            1..=3 => '.',
            4..=6 => 'o',
            _ => '#',
        })
        .collect()
}

fn rounded(scores: &[f32]) -> Vec<f32> {
    scores.iter().map(|s| (s * 1000.0).round() / 1000.0).collect()
}

fn main() {
    let models = models();
    let profile = LlmProfile::gpt4o_mini();
    let curves = score_curves(models);

    header("Figure 5: relevance-score curves of retrieved chunks", "rank: 1 → N");

    let focused = noisy_retrieval_sweep(models, profile);
    println!("\nArticle-1 (focused question): {}", focused.question);
    println!("  scores: {:?}", rounded(&curves.focused));
    println!("  curve:  [{}]  (sharp drop — select the head)", ascii_curve(&curves.focused));
    println!("  SAGE selected {} chunks, correct: {}", focused.sage_selected, focused.sage_correct);

    let broad = missing_retrieval_sweep(models, LlmProfile::gpt4());
    println!("\nArticle-2 (elimination question): {}", broad.question);
    println!("  scores: {:?}", rounded(&curves.broad));
    println!("  curve:  [{}]  (flat high region — select many)", ascii_curve(&curves.broad));
    println!("  SAGE selected {} chunks, correct: {}", broad.sage_selected, broad.sage_correct);

    println!(
        "\nGradient cut at min_k = 1: focused {} chunks, broad {} chunks",
        ScoreCurves::cut(&curves.focused),
        ScoreCurves::cut(&curves.broad)
    );
    assert!(curves.holds(), "Figure 5: focused must cut at <= 2 chunks, broad at >= 5: {curves:?}");
    println!("Figure 5 holds: the focused curve is a cliff, the broad one a plateau.");
}
