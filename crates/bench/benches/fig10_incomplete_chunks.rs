//! **Figure 10** — the ineffective-segmentation case study: fixed-length
//! chunking separates a pronoun-form fact ("He sang a tribal song for the
//! moderator.") from its antecedent ("Gavir is a quiet shepherd."), making
//! the fact unusable; semantic segmentation keeps them together.

use sage::core::case_studies::incomplete_chunks_case;
use sage::prelude::*;
use sage_bench::{header, models};

fn main() {
    let models = models();
    let cs = incomplete_chunks_case(models, LlmProfile::gpt4o_mini());

    header("Figure 10: a case of ineffective corpus segmentation", "");
    println!("Question: {}", cs.question);
    println!("Gold:     {}", cs.gold);
    println!(
        "\nFixed-length chunking split the evidence from its antecedent: {}",
        cs.fixed_split_evidence
    );
    println!("Answer over fixed-length chunks:  {:?}", cs.fixed_answer);
    println!("Answer over semantic chunks:      {:?}", cs.semantic_answer);
    assert!(
        cs.holds(),
        "Figure 10: the split fixed-length chunks miss the gold, semantic chunks find it"
    );
    println!("\nFigure 10 holds: the fixed-length answer misses the gold because the pronoun");
    println!("sentence lost its antecedent; the semantic answer finds it.");
}
