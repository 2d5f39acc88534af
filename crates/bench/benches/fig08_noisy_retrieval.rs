//! **Figure 8** — the noisy-retrieval case study: sweep a fixed K from 1
//! to 15 on a question whose document contains many conflicting
//! same-relation distractors, and watch the reader drift from the correct
//! answer to the distractor-supported one; SAGE's gradient selection stays
//! on the target.

use sage::core::case_studies::noisy_retrieval_sweep;
use sage::prelude::*;
use sage_bench::{header, models};

fn main() {
    let models = models();
    // The weaker reader makes the noise effect visible, as in the paper's
    // case study.
    let cs = noisy_retrieval_sweep(models, LlmProfile::gpt35_turbo());

    header("Figure 8: a case of noisy retrieval", "");
    println!("Question: {}", cs.question);
    println!("Options:  {:?} (correct: {})\n", cs.options, cs.options[cs.correct_option]);
    println!("{:<5} {:<14} outcome", "K", "picked");
    for p in &cs.sweep {
        println!(
            "{:<5} {:<14} {}",
            p.k,
            cs.options[p.picked],
            if p.correct { "correct" } else { "WRONG (noise)" }
        );
    }
    println!(
        "\nSAGE (gradient selection): selected {} chunks → {}",
        cs.sage_selected,
        if cs.sage_correct { "correct" } else { "wrong" }
    );
    assert!(
        cs.holds(),
        "Figure 8: correct at every K <= 10, misled at some larger K, SAGE correct with fewer chunks"
    );
    println!("\nFigure 8 holds: correct at every K ≤ 10, misled at a larger K; SAGE stays correct");
    println!("with fewer chunks than that K.");
}
