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
    println!("\nExpected shape: correct at small K, wrong answers appearing at large K;");
    println!("SAGE selects few chunks and stays correct.");
}
