//! **Table IV** — module ablation on NarrativeQA (GPT-4o-mini analog):
//! Naive RAG, Naive + each SAGE module alone, and full SAGE.
//!
//! Paper shape: every single module improves over Naive RAG, and full SAGE
//! beats each single-module variant ("the three modules do not negatively
//! affect each other").
//!
//! Asserted: full SAGE scores at least what every other row does on every
//! metric. A single module below Naive RAG is printed as a recorded gap
//! (EXPERIMENTS.md Exp-7).

use sage::core::experiment::ablation;
use sage::corpus::datasets::narrativeqa;
use sage::prelude::*;
use sage_bench::{header, models, pct, sizes};

fn main() {
    let dataset = narrativeqa::generate(sizes::narrativeqa());
    let table =
        ablation(models(), LlmProfile::gpt4o_mini(), RetrieverKind::OpenAiSim, &dataset);

    header(
        "Table IV: ablation on NarrativeQA (GPT-4o-mini sim)",
        &format!("{:<30} {:>8} {:>8} {:>8} {:>8}", "Model", "ROUGE", "BLEU-1", "BLEU-4", "METEOR"),
    );
    for (label, s) in &table.rows {
        println!(
            "{label:<30} {:>8} {:>8} {:>8} {:>8}",
            pct(s.rouge),
            pct(s.bleu1),
            pct(s.bleu4),
            pct(s.meteor)
        );
    }
    assert!(table.holds(), "Table IV: a row scores above full SAGE");
    println!("\nTable IV holds: full SAGE scores at least what every row does on every metric.");
    for (row, metric) in table.below_naive() {
        println!("Recorded gap (EXPERIMENTS.md Exp-7): {row} is below Naive RAG on {metric}.");
    }
}
