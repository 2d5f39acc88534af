//! **Figure 9** — the missing-retrieval case study: an elimination
//! question that needs *all* the positive facts in context. Small fixed K
//! misses evidence and fails; large K succeeds; SAGE's smooth score curve
//! keeps gradient selection extending, so it selects enough chunks.

use sage::core::case_studies::missing_retrieval_sweep;
use sage::prelude::*;
use sage_bench::{header, models};

fn main() {
    let models = models();
    let cs = missing_retrieval_sweep(models, LlmProfile::gpt4());

    header("Figure 9: a case of missing retrieval", "");
    println!("Question: {}", cs.question);
    println!("Options:  {:?} (correct: {})\n", cs.options, cs.options[cs.correct_option]);
    println!("{:<5} {:<14} outcome", "K", "picked");
    for p in &cs.sweep {
        println!(
            "{:<5} {:<14} {}",
            p.k,
            cs.options[p.picked],
            if p.correct { "correct" } else { "WRONG (missing evidence)" }
        );
    }
    println!(
        "\nReranker scores (smooth, no early cliff): {:?}",
        cs.score_curve.iter().take(12).map(|s| (s * 100.0).round() / 100.0).collect::<Vec<_>>()
    );
    println!(
        "SAGE (gradient selection): selected {} chunks → {}",
        cs.sage_selected,
        if cs.sage_correct { "correct" } else { "wrong" }
    );
    assert!(cs.holds(), "Figure 9: wrong at K = 1, correct at every K >= 6 and with SAGE");
    println!("\nFigure 9 holds: wrong at K = 1 (evidence missing), correct at every K ≥ 6 and");
    println!("with SAGE.");
}
